package exec

import "hybridstore/internal/value"

// Blocks is a scan cut into N numbered blocks, the one shape every store
// hands its rows out in. Block(w, i) decodes block i's matching rows into
// worker w's buffers, which its next block overwrites: colVals[j][k] is
// the j-th scanned column (a scan reads at least one) of the k-th row, and
// nil means the block has none. Block numbers follow the serial scan
// order, whichever worker runs a block. Ctx is what the blocks run on: the
// scan's context, or that context without its pool where the store is too
// small for helpers or must run its blocks in order. Consumers walk the
// blocks with Ctx.Morsels or Reduce — Block takes any worker id Ctx hands
// out — and then call Done, when set.
type Blocks struct {
	N     int
	Ctx   *Ctx
	Block func(w, i int) [][]value.Value
	Done  func()
}

// Each runs fn on every non-empty block on b.Ctx, then releases the scan;
// fn returning false stops it (as does Ctx's Stop hook, polled between
// blocks).
func (b Blocks) Each(fn func(w, i int, colVals [][]value.Value) bool) {
	b.Ctx.Morsels(b.N, func(w, i int) bool {
		colVals := b.Block(w, i)
		return len(colVals) == 0 || fn(w, i, colVals)
	})
	b.Release()
}

// Release runs Done, if the scan has one.
func (b Blocks) Release() {
	if b.Done != nil {
		b.Done()
	}
}
