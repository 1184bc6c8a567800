package archsplit

// Lanes is the number of float64 lanes of the widest kernel (selected by
// file name suffix).
const Lanes = 4
