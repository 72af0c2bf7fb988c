package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorRoundTripF64(t *testing.T) {
	v := []float64{0, 1, -1, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	var buf bytes.Buffer
	if err := WriteVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(v) {
		t.Fatalf("len %d", len(got))
	}
	for i := range v {
		if math.IsNaN(v[i]) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("NaN not preserved at %d", i)
			}
			continue
		}
		if got[i] != v[i] {
			t.Fatalf("elem %d: %v != %v", i, got[i], v[i])
		}
	}
}

func TestVectorRoundTripF32(t *testing.T) {
	v := []float64{0, 0.5, -2, 1e10}
	var buf bytes.Buffer
	if err := WriteVectorF32(&buf, v); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != VectorWireSizeF32(len(v)) {
		t.Fatalf("wire size %d want %d", buf.Len(), VectorWireSizeF32(len(v)))
	}
	got, err := ReadVectorF32(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != float64(float32(v[i])) {
			t.Fatalf("elem %d: %v", i, got[i])
		}
	}
}

func TestVectorEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVector(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len %d", len(got))
	}
}

func TestVectorBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVectorF32(&buf, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVector(&buf); err == nil {
		t.Fatal("f64 reader accepted f32 stream")
	}
	if _, err := ReadVector(bytes.NewReader([]byte("junkdata"))); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestVectorTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVector(&buf, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadVector(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := ReadVector(bytes.NewReader(raw[:6])); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := ReadVector(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestVectorCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVector(&buf, []float64{1}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for i := 4; i < 12; i++ {
		raw[i] = 0xFF // absurd length
	}
	if _, err := ReadVector(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

// Property: f64 round trip is exact for arbitrary finite vectors.
func TestVectorRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			return false
		}
		got, err := ReadVector(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVectorCodecBitExact round-trips a million values through both
// vector formats — signed zeros, infinities, subnormals and NaNs with
// distinct payloads among them — and compares bit patterns with ==. The
// encodings must equal a per-value reference encoder's byte for byte.
func TestVectorCodecBitExact(t *testing.T) {
	const n = 1_000_000
	special := []uint64{
		0, 1 << 63, // +0, -0
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		1, 0x000fffffffffffff, 1<<63 | 0x0008000000000000, // subnormals
		0x7ff8000000000000, 0x7ff0000000000001, 0xfff4000000000abc, 0x7ffc00000000dead, // NaN payloads
		math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(math.MaxFloat64),
	}
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, n)
	for i := range v {
		if i%7 == 0 {
			v[i] = math.Float64frombits(special[(i/7)%len(special)])
		} else {
			v[i] = math.Float64frombits(rng.Uint64())
		}
	}
	formats := []struct {
		name  string
		magic string
		width int
		write func(*bytes.Buffer, []float64) error
		read  func(*bytes.Buffer) ([]float64, error)
		bits  func(float64) uint64 // the value a round trip must reproduce
		put   func([]byte, float64)
	}{
		{"f64", "FTV1", 8,
			func(b *bytes.Buffer, v []float64) error { return WriteVector(b, v) },
			func(b *bytes.Buffer) ([]float64, error) { return ReadVector(b) },
			math.Float64bits,
			func(d []byte, x float64) { binary.LittleEndian.PutUint64(d, math.Float64bits(x)) }},
		{"f32", "FTV2", 4,
			func(b *bytes.Buffer, v []float64) error { return WriteVectorF32(b, v) },
			func(b *bytes.Buffer) ([]float64, error) { return ReadVectorF32(b) },
			func(x float64) uint64 { return math.Float64bits(float64(float32(x))) },
			func(d []byte, x float64) { binary.LittleEndian.PutUint32(d, math.Float32bits(float32(x))) }},
	}
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			want := make([]byte, 12+f.width*n)
			copy(want, f.magic)
			binary.LittleEndian.PutUint64(want[4:], n)
			for i, x := range v {
				f.put(want[12+f.width*i:], x)
			}
			var buf bytes.Buffer
			if err := f.write(&buf, v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("encoding differs from the per-value reference encoder")
			}
			got, err := f.read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("decoded %d values, want %d", len(got), n)
			}
			for i := range v {
				if math.Float64bits(got[i]) != f.bits(v[i]) {
					t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(got[i]), f.bits(v[i]))
				}
			}
		})
	}
}

// TestReadChunksNAllocationFollowsBytes: a count that claims far more
// values than the stream holds fails as a short read after allocating
// about what was present, not the claimed count.
func TestReadChunksNAllocationFollowsBytes(t *testing.T) {
	raw := make([]byte, 12+8*1000)
	copy(raw, "FTV1")
	binary.LittleEndian.PutUint64(raw[4:], maxVectorLen)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadVector(bytes.NewReader(raw))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("forged length: err %v, want a short read", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
		t.Fatalf("forged length allocated %d bytes", grew)
	}
}
