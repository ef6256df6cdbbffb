package resultcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary bytes to the store-entry decoder. A
// corrupt, truncated or hostile entry file must be rejected, never
// panic the server that reads it; and every input the decoder accepts
// must be exactly what encodeEntry writes for the decoded entry, so
// the header and digest leave no byte unchecked.
func FuzzDecodeEntry(f *testing.F) {
	valid := encodeEntry(testEntry())
	f.Add(valid)
	f.Add(encodeEntry(Entry{}))
	f.Add(encodeEntry(Entry{Runs: []byte(`{"runs":[]}`), Cells: 1 << 31}))
	f.Add(valid[:storeHeaderSize])
	digestFlipped := bytes.Clone(valid)
	digestFlipped[storeHeaderSize-1] ^= 1
	f.Add(digestFlipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			return
		}
		if e.Cells < 0 {
			t.Fatalf("decoded a negative cell count %d", e.Cells)
		}
		if got := encodeEntry(e); !bytes.Equal(got, data) {
			t.Fatalf("accepted entry re-encodes to different bytes:\n got %x\nwant %x", got, data)
		}
	})
}
