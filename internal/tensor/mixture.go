package tensor

// Block forms of the Gaussian-mixture E- and M-step loops, for internal/gmm.
// Their specification is gmm's own Go code — the per-value posterior and the
// two passes of mStep — not a loop in this package: each function runs its
// vector routine over what that routine covers and reports how much, and gmm
// runs its loop over the rest, the way vecSlice leaves Log's and Exp's
// special lanes to math. On a build or CPU without the vector routines they
// cover nothing. See DESIGN.md "Fit and encode arithmetic".

const (
	// gmmMaxK is the most components the vector routines take: the M-step
	// keeps twelve components' sums in three registers, and the posterior's
	// block scratch holds twelve logits per value.
	gmmMaxK = 12
	// gmmBlock is how many values share one Exp call in GMMPosteriors.
	gmmBlock = 64
)

// GMMPosteriors computes gmm.posterior for the leading values of x and
// returns how many it computed: len(x) rounded down to a multiple of four, or
// 0 where the vector routines are off or k = len(logW) is 0 or above 12.
// Value i's k posteriors go to resp[i*k:(i+1)*k], its largest logit to
// maxLog[i] and the sum of its shifted exponentials to sum[i]; maxLog and sum
// may be nil when the caller does not need them. means, stds, logW and logStd
// are the k components' parameters and the logs of their weights and stds,
// halfLog2Pi the density's constant term. Per block of up to 64 values the
// logits, their maxima and the shift run four values to a vector, one Exp
// call takes the whole block's shifted logits, and the sums and divisions
// run four values to a vector again; every value sees posterior's operations
// in posterior's order.
func GMMPosteriors(resp, maxLog, sum, x, means, stds, logW, logStd []float64, halfLog2Pi float64) int {
	return gmmPosteriors(resp, maxLog, sum, x, means, stds, logW, logStd, halfLog2Pi)
}

// GMMSums runs gmm.mStep's first pass where the vector routine covers it
// (k = len(nk) from 1 to 12) and reports whether it did: nk[c] = Σ r and
// mu[c] = Σ float64(r·x) over the rows of the n×k responsibilities resp in
// ascending order, x holding the n values.
func GMMSums(nk, mu, resp, x []float64) bool { return gmmSums(nk, mu, resp, x) }

// GMMSpread runs gmm.mStep's second pass where the vector routine covers it,
// with GMMSums's rules: va[c] = Σ float64(float64(r·d)·d), d = x − mu[c].
func GMMSpread(va, mu, resp, x []float64) bool { return gmmSpread(va, mu, resp, x) }
