// Golden fixture for simdeterminism's map-iteration-order check.
// The package path (riflint.test/...) opts into the deep-sim package
// set where the check is active.
package maporder

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appending to "keys" inside a map range`
		keys = append(keys, k)
	}
	return keys
}

func okSortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m { // collect-then-sort is deterministic
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func badPrint(m map[string]int) {
	for k, v := range m { // want `calling fmt\.Println inside a map range`
		fmt.Println(k, v)
	}
}

func badBuilder(m map[string]int) string {
	var out []byte
	for k := range m { // want `appending to "out" inside a map range`
		out = append(out, k...)
	}
	return string(out)
}

func badSchedule(e *sim.Engine, m map[int]sim.Handler) {
	for t, fn := range m { // want `calling sim\.Engine\.At inside a map range`
		e.At(sim.Time(t)*sim.Microsecond, fn)
	}
}

func badSend(m map[int]int, ch chan int) {
	for _, v := range m { // want `sending on a channel from inside a map range`
		ch <- v
	}
}

func okAccumulate(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative fold: order-insensitive
		total += v
	}
	return total
}

func okLocalAppend(m map[string][]int) {
	for _, vs := range m { // slice dies inside the iteration
		var local []int
		local = append(local, vs...)
		_ = local
	}
}

func okSliceRange(xs []int, out *[]int) {
	for _, v := range xs { // not a map: slices iterate in order
		*out = append(*out, v)
	}
}

func allowed(m map[string]int) []string {
	var keys []string
	//riflint:allow maporder -- golden test: caller shuffles anyway
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func badArgMin(m map[int][]int) int {
	victim, best := -1, 1<<30
	for b, pages := range m { // want `keeping the range key in "victim" only when a condition holds`
		if n := len(pages); n < best {
			best = n
			victim = b
		}
	}
	return victim
}

func badDerivedKey(m map[string]float64) string {
	var top string
	hi := 0.0
	for k, v := range m { // want `keeping the range key in "top" only when a condition holds`
		name := "blk-" + k
		if v > hi {
			hi = v
			top = name
		}
	}
	return top
}

func okTieBreakOnKey(m map[int][]int) int {
	victim, best := -1, 1<<30
	for b, pages := range m { // ties go to the lowest key: order-independent
		if n := len(pages); n < best || n == best && b < victim {
			best = n
			victim = b
		}
	}
	return victim
}

func okMaxOverValues(m map[string]int) int {
	hi := 0
	for _, v := range m { // the maximum value is the same in any order
		if v > hi {
			hi = v
		}
	}
	return hi
}

func okKeyFold(m map[int]int) int {
	sum := 0
	for k, v := range m { // a commutative fold of the keys
		if v > 0 {
			sum += k
		}
	}
	return sum
}
