// Package basic exercises the hotpath allocation lint: every
// allocating construct inside an annotated function is flagged, the
// static call graph drags callees into the hot set, the panic subtree
// and //riflint:allow escapes stay silent, and unannotated code is
// never touched.
package basic

import (
	"fmt"
	"strings"
)

type dev struct {
	scratch []int
	out     []int
	hooks   []func()
}

//riflint:hotpath
func (d *dev) step(n int) int {
	m := map[int]int{}            // want `map literal allocated in hot path dev.step`
	s := []int{1, 2, 3}           // want `slice literal allocated in hot path dev.step`
	d.out = append(d.out, n)      // want `append may grow its backing array in hot path dev.step`
	buf := make([]byte, n)        // want `make in hot path dev.step`
	p := new(int)                 // want `new in hot path dev.step`
	fn := func() int { return n } // want `closure allocated in hot path dev.step`
	fmt.Println()                 // want `fmt.Println allocates in hot path dev.step`
	var b strings.Builder
	b.WriteString("x") // want `strings.Builder use in hot path dev.step`
	var sink interface{}
	sink = n      // want `interface boxing of int in hot path dev.step`
	ptr := &dev{} // want `heap composite literal .* in hot path dev.step`
	// A bound method value carries its receiver in a heap closure; a
	// call through the selector, a method expression and a plain
	// function value do not allocate.
	d.hooks[0] = d.reset // want `bound method value dev.reset allocated in hot path dev.step`
	(d.reset)()
	reset := (*dev).reset
	reset(d)
	d.hooks[0] = cold2
	if n < 0 {
		// The failure path may allocate: the panic argument subtree is
		// exempt even though Sprintf allocates.
		panic(fmt.Sprintf("hotpath: negative step %d", n))
	}
	//riflint:allow alloc -- fixture: measured warm append pinned by a benchmark
	d.hooks = append(d.hooks, nil)
	_, _, _, _, _, _, _ = m, s, buf, p, fn, sink, ptr
	return d.helper(n)
}

func (d *dev) reset() { d.out = d.out[:0] }

func cold2() {}

// helper carries no annotation but is called from step, so the hot set
// pulls it in transitively.
func (d *dev) helper(n int) int {
	d.scratch = append(d.scratch, n) // want `append may grow its backing array in hot path dev.helper \(hot via dev.step\)`
	return len(d.scratch)
}

// cold is neither annotated nor reachable from hot code: it may
// allocate freely.
func cold() []int {
	out := make([]int, 0, 8)
	return append(out, 1, 2, 3)
}
