//go:build race

package obs

// Under the race detector sync.Pool drops items at random, so
// encoding/json's pooled buffers are remade on some calls and
// allocation counts vary from run to run.
func init() { raceEnabled = true }
