// Package privflow exercises the privflow taint analyzer on a
// self-contained miniature of the GTV client/server boundary: private
// fields marked //privacy:source, a bottom-model //privacy:sanitizer,
// and an RPC surface of //privacy:sink functions the server consumes.
package privflow

// party holds one participant's private state.
type party struct {
	//privacy:source raw column values
	table []float64
	//privacy:source matching-row indices
	idx []int
}

// embed stands in for the bottom-model forward pass: only the learned
// activation leaves it, never the raw input.
//
//privacy:sanitizer bottom-model activation
func embed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * 0.5
	}
	return out
}

// Service is the RPC surface the server consumes.
type Service interface {
	//privacy:sink raw slice the server stores
	Fetch() []float64
	//privacy:sink activation returned to the server
	Forward() []float64
}

var _ Service = (*party)(nil)

// Fetch is the seeded violation: a sink returning a source directly.
func (p *party) Fetch() []float64 {
	return p.table // want `privacy source "raw column values" returned from privacy sink party\.Fetch \(raw slice the server stores\) without a sanitizer`
}

// Forward is the clean path: the table passes the sanitizer first.
func (p *party) Forward() []float64 {
	return embed(p.table)
}

// message bundles a conditional vector with its matching row indices —
// the shape a client would send the server per training round.
type message struct {
	cv  []float64
	idx []int
}

// pickRows selects the matching rows through a helper chain, so the
// taint reaches the sink only interprocedurally.
func pickRows(p *party) []int {
	return gather(p.idx)
}

// gather copies the indices; copy propagates taint from src to dst.
func gather(idx []int) []int {
	out := make([]int, len(idx))
	copy(out, idx)
	return out
}

// SampleCV is the second seeded violation: the unshuffled row indices
// ride along with the conditional vector in one server-visible message.
//
//privacy:sink conditional vector and row indices sent to the server
func SampleCV(p *party) message {
	return message{cv: embed(p.table), idx: pickRows(p)} // want `privacy source "matching-row indices" returned from privacy sink privflow\.SampleCV .* without a sanitizer`
}

// rawView exposes the table without sanitizing; harmless on its own,
// a leak once a sink forwards it.
func rawView(p *party) []float64 {
	return p.table
}

// FillReply is the third seeded violation: the leak goes out through
// the server's reply pointer rather than a return value.
//
//privacy:sink reply message filled for the server
func FillReply(p *party, reply *[]float64) {
	*reply = rawView(p) // want `privacy source "raw column values" written to the reply of privacy sink privflow\.FillReply \(reply message filled for the server\) without a sanitizer`
}

// Publish models a sanctioned disclosure: the flow is real, so privflow
// reports it, and the fixture audits it with a reasoned suppression.
//
//privacy:sink synthetic columns published to the server
func Publish(p *party) []float64 {
	//lint:ignore privflow fixture demonstrates an audited, sanctioned disclosure
	return p.table
}

// ---- call shapes: one sink per way a call can reach its callee ----

// rowIDs is a named slice of row indices.
type rowIDs []int

// head returns the first index; it is called below through a method value.
func (r rowIDs) head() []int {
	return r[:1]
}

// SendConverted leaks the indices through a conversion, which passes its
// operand's taint on.
//
//privacy:sink converted indices
func SendConverted(p *party) rowIDs {
	return rowIDs(p.idx) // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendConverted`
}

// SendAppended leaks through the append builtin.
//
//privacy:sink appended indices
func SendAppended(p *party) []int {
	return append([]int{0}, p.idx...) // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendAppended`
}

// SendCopied leaks through the copy builtin, which taints its destination.
//
//privacy:sink copied indices
func SendCopied(p *party) []int {
	out := make([]int, len(p.idx))
	copy(out, p.idx)
	return out // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendCopied`
}

// firstOf is generic; an explicit instantiation still reaches its summary.
func firstOf[T any](xs []T) []T {
	return xs[:1]
}

// SendFirst leaks through an explicitly instantiated generic call.
//
//privacy:sink first index
func SendFirst(p *party) []int {
	return firstOf[int](p.idx) // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendFirst`
}

// SendViaMethodValue calls a method through a variable: an unknown
// callee, whose result carries the taint of the receiver it captured.
//
//privacy:sink head index read through a method value
func SendViaMethodValue(p *party) []int {
	f := rowIDs(p.idx).head
	return f() // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendViaMethodValue`
}

// pack collects a head and a variadic tail.
func pack(head int, rest ...int) []int {
	return append([]int{head}, rest...)
}

// SendPackedArgs passes an index as an extra variadic argument.
//
//privacy:sink indices packed as variadic arguments
func SendPackedArgs(p *party) []int {
	return pack(0, 1, p.idx[0]) // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendPackedArgs`
}

// SendPackedSpread spreads the indices into the variadic tail.
//
//privacy:sink indices spread into the variadic tail
func SendPackedSpread(p *party) []int {
	return pack(0, p.idx...) // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendPackedSpread`
}

// rowSource has two implementations: a call through it takes the union
// of both summaries, so the leaky one is enough.
type rowSource interface {
	pick() []int
}

type leakySource struct{ p *party }

func (s leakySource) pick() []int {
	return s.p.idx
}

type emptySource struct{}

func (emptySource) pick() []int {
	return nil
}

// SendPicked reads rows through the interface.
//
//privacy:sink rows picked through an interface
func SendPicked(s rowSource) []int {
	return s.pick() // want `privacy source "matching-row indices" returned from privacy sink privflow\.SendPicked`
}

var _ = []rowSource{leakySource{}, emptySource{}}
