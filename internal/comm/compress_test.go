package comm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestParseTransportAccepts covers every accepted spec form and its
// canonical rendering.
func TestParseTransportAccepts(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical String(); "" means nil transport
	}{
		{"", ""},
		{"none", ""},
		{"f32", "f32"},
		{"lossless", "lossless"},
		{"q8", "q8"},
		{"q1", "q1"},
		{"q16", "q16"},
		{"q8+ef", "q8+ef"},
		{"topk:0.01", "topk:0.01"},
		{"topk:0.010", "topk:0.01"}, // ratio normalizes
		{"topk:1", "topk:1"},
		{"topk:0.01+ef", "topk:0.01+ef"},
		{"randk:0.05", "randk:0.05"},
		{"randk:0.05+ef", "randk:0.05+ef"},
	}
	for _, c := range cases {
		tr, err := ParseTransport(c.spec)
		if err != nil {
			t.Fatalf("ParseTransport(%q): %v", c.spec, err)
		}
		if c.want == "" {
			if tr != nil {
				t.Fatalf("ParseTransport(%q) = %v, want nil", c.spec, tr)
			}
			continue
		}
		str, ok := tr.(fmt.Stringer)
		if !ok {
			t.Fatalf("ParseTransport(%q) transport has no String()", c.spec)
		}
		if got := str.String(); got != c.want {
			t.Fatalf("ParseTransport(%q).String() = %q, want %q", c.spec, got, c.want)
		}
		// Every parsed transport must report per-transfer sizes so the
		// network model can price it.
		if _, ok := tr.(core.SizedTransport); !ok {
			t.Fatalf("ParseTransport(%q) transport is not SizedTransport", c.spec)
		}
	}
}

// TestParseTransportRejects covers malformed specs and the exact error
// vocabulary.
func TestParseTransportRejects(t *testing.T) {
	cases := []struct {
		spec    string
		errPart string
	}{
		{"ef", "ef is a modifier"},
		{"ef+topk:0.01", "ef is a modifier"}, // composition order matters
		{"q8+ef+ef", "duplicate ef"},
		{"topk:0.01+q8", "only one base"},
		{"q8+topk", "only one base"},
		{"f32+ef", "requires a lossy compressor"},
		{"lossless+ef", "requires a lossy compressor"},
		{"none+ef", "unknown base"},
		{"q8+", "empty segment"},
		{"+ef", "empty segment"},
		{"q0", "outside [1,16]"},
		{"q17", "outside [1,16]"},
		{"qx", "unknown base"},
		{"q8:3", "unknown base"},
		{"topk", "wants a keep ratio"},
		{"topk:", "wants a keep ratio"},
		{"topk:abc", "wants a keep ratio"},
		{"topk:0", "outside (0,1]"},
		{"topk:1.5", "outside (0,1]"},
		{"topk:-0.1", "outside (0,1]"},
		{"randk:0", "outside (0,1]"},
		{"randk:nan", "outside (0,1]"},
		{"f32:1", "takes no argument"},
		{"lossless:x", "takes no argument"},
		{"gzip", "unknown base"},
		{"q8+gzip", "unknown modifier"},
	}
	for _, c := range cases {
		_, err := ParseTransport(c.spec)
		if err == nil {
			t.Fatalf("ParseTransport(%q): accepted, want error containing %q", c.spec, c.errPart)
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Fatalf("ParseTransport(%q) error %q missing %q", c.spec, err, c.errPart)
		}
	}
}

// roundTripUp performs one down+up cycle and returns the server-side
// reconstruction plus the measured uplink bytes.
func roundTripUp(t *testing.T, tr core.SizedTransport, clientID, round int, global, trained []float64) ([]float64, int64) {
	t.Helper()
	if _, down := tr.DownSized(clientID, round, global); down != tensor.VectorWireSizeF32(len(global)) {
		t.Fatalf("downlink bytes %d, want f32 dense %d", down, tensor.VectorWireSizeF32(len(global)))
	}
	return tr.UpSized(clientID, round, trained)
}

// TestCompressedTransportTopK checks sparse reconstruction and that the
// wire size is genuinely sparse.
func TestCompressedTransportTopK(t *testing.T) {
	trI, err := ParseTransport("topk:0.01")
	if err != nil {
		t.Fatal(err)
	}
	tr := trI.(*CompressedTransport)
	n := 1000
	global := make([]float64, n)
	trained := make([]float64, n)
	copy(trained, global)
	trained[7] = 5    // the dominant coordinates
	trained[400] = -3 // (k = ceil(0.01*1000) = 10)
	out, up := roundTripUp(t, tr, 0, 1, global, trained)
	if out[7] != 5 || out[400] != -3 {
		t.Fatalf("top-k dropped the dominant coordinates: out[7]=%g out[400]=%g", out[7], out[400])
	}
	if want := int64(8 + 10*8); up != want {
		t.Fatalf("top-k:0.01 uplink %d bytes, want %d", up, want)
	}
	if up >= tensor.VectorWireSizeF32(n)/10 {
		t.Fatalf("sparse uplink %d not ≪ dense %d", up, tensor.VectorWireSizeF32(n))
	}
}

// TestErrorFeedbackRecoversDroppedMass: with top-k so aggressive that a
// coordinate is dropped, EF must carry it into the next round's upload.
func TestErrorFeedbackRecoversDroppedMass(t *testing.T) {
	trI, err := ParseTransport("topk:0.001+ef")
	if err != nil {
		t.Fatal(err)
	}
	tr := trI.(*CompressedTransport)
	n := 1000 // k = 1: only the largest delta entry ships each round
	global := make([]float64, n)
	trained := make([]float64, n)
	trained[3] = 10 // ships round 1
	trained[9] = 4  // dropped round 1, must ship round 2 via the residual
	out, _ := roundTripUp(t, tr, 0, 1, global, trained)
	if out[3] != 10 || out[9] != 0 {
		t.Fatalf("round 1: out[3]=%g out[9]=%g, want 10, 0", out[3], out[9])
	}
	// Round 2: client trains nothing new (upload == received), but the
	// residual still holds the dropped coordinate 9.
	out2, _ := roundTripUp(t, tr, 0, 2, out, out)
	if math.Abs(out2[9]-4) > 1e-6 {
		t.Fatalf("round 2: EF did not resurface dropped coordinate: out2[9]=%g, want 4", out2[9])
	}

	// Without EF the dropped coordinate is gone forever.
	trNoEF, err := ParseTransport("topk:0.001")
	if err != nil {
		t.Fatal(err)
	}
	nf := trNoEF.(*CompressedTransport)
	o1, _ := roundTripUp(t, nf, 0, 1, global, trained)
	o2, _ := roundTripUp(t, nf, 0, 2, o1, o1)
	if o2[9] != 0 {
		t.Fatalf("no-EF transport resurrected dropped mass: %g", o2[9])
	}
}

// TestRandKDeterministicPerDispatch: rand-k's index draw depends only on
// (clientID, round), so two transports agree and resume needs no state.
func TestRandKDeterministicPerDispatch(t *testing.T) {
	mk := func() *CompressedTransport {
		trI, err := ParseTransport("randk:0.05")
		if err != nil {
			t.Fatal(err)
		}
		return trI.(*CompressedTransport)
	}
	n := 400
	global := make([]float64, n)
	trained := make([]float64, n)
	for i := range trained {
		trained[i] = float64(i%7) - 3
	}
	a, _ := roundTripUp(t, mk(), 3, 5, global, trained)
	b, _ := roundTripUp(t, mk(), 3, 5, global, trained)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand-k not deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
	c, _ := roundTripUp(t, mk(), 3, 6, global, trained)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rand-k drew identical support for different rounds")
	}
}

// TestTransportStateRoundTrip: EF residuals serialize and restore
// bit-for-bit, and a restored transport continues identically.
func TestTransportStateRoundTrip(t *testing.T) {
	mk := func() *CompressedTransport {
		trI, err := ParseTransport("topk:0.001+ef")
		if err != nil {
			t.Fatal(err)
		}
		return trI.(*CompressedTransport)
	}
	tr := mk()
	n := 500
	global := make([]float64, n)
	for c := 0; c < 4; c++ {
		trained := make([]float64, n)
		trained[10+c] = float64(c + 1)
		trained[100+c] = -2
		roundTripUp(t, tr, c, 1, global, trained)
	}
	var buf bytes.Buffer
	if err := tr.SnapshotState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.RestoreState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Same next-round behavior from both.
	trained := make([]float64, n)
	trained[42] = 0.5
	a, aw := roundTripUp(t, tr, 2, 2, global, trained)
	b, bw := roundTripUp(t, restored, 2, 2, global, trained)
	if aw != bw {
		t.Fatalf("wire bytes diverge after restore: %d vs %d", aw, bw)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored transport diverges at %d: %g vs %g", i, a[i], b[i])
		}
	}
	// Corrupt input is rejected, not crashed on: a truncated count, ids
	// out of order, and a residual claiming the cap's 2^24 floats with
	// none present, which must fail without allocating the claim.
	state := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	for name, in := range map[string][]byte{
		"truncated":    {1, 2, 3},
		"ids unsorted": state(2, 5, 0, 3, 0),
		"forged len":   state(1, 0, maxResidEntries, 0),
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := restored.RestoreState(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Fatalf("%s: corrupt state accepted", name)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: allocated %d bytes before failing", name, grew)
		}
	}
}
