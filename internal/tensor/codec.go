package tensor

import (
	"encoding/binary"
	"io"
	"math"
)

// Bulk little-endian codecs. A slice is encoded through one fixed scratch
// chunk — one Write or ReadFull per chunk instead of one per value — so
// serializing a vector costs no allocation per value and runs at memory
// speed. The vector files (FTV1/FTV2), the compressing transports'
// snapshot state and the run snapshot (FTRS) all encode through these.

// ChunkBytes is the scratch size the bulk codecs work through: 4096
// float64 values.
const ChunkBytes = 32 << 10

// preallocValues is the largest count ReadChunksN allocates before any
// of its bytes arrived; longer reads grow as their chunks do.
const preallocValues = 1 << 15

// chunkFor returns scratch for encoding n values of width bytes:
// ChunkBytes, or less when the whole payload is smaller.
func chunkFor(n, width int) []byte {
	return make([]byte, max(width, min(ChunkBytes, n*width)))
}

// WriteChunks writes v to w through chunk, width bytes per value. put
// encodes len(src) values into dst[:width*len(src)].
func WriteChunks[T any](w io.Writer, v []T, width int, chunk []byte, put func(dst []byte, src []T)) error {
	per := len(chunk) / width
	for len(v) > 0 {
		n := min(len(v), per)
		put(chunk, v[:n])
		if _, err := w.Write(chunk[:n*width]); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// ReadChunks fills v from r through chunk, the inverse of WriteChunks.
// get decodes dst from src[:width*len(dst)] and may refuse a value;
// a short read returns io.ErrUnexpectedEOF (or io.EOF when nothing was
// read).
func ReadChunks[T any](r io.Reader, v []T, width int, chunk []byte, get func(dst []T, src []byte) error) error {
	per := len(chunk) / width
	for len(v) > 0 {
		n := min(len(v), per)
		if _, err := io.ReadFull(r, chunk[:n*width]); err != nil {
			return err
		}
		if err := get(v[:n], chunk); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// ReadChunksN reads n values with ReadChunks into a new slice whose
// allocation follows the bytes actually read: past preallocValues it
// grows geometrically as chunks arrive, ending at exactly n, so a forged
// count backed by no data costs a bounded allocation, not n values.
func ReadChunksN[T any](r io.Reader, n, width int, chunk []byte, get func(dst []T, src []byte) error) ([]T, error) {
	v := make([]T, 0, min(n, max(preallocValues, len(chunk)/width)))
	for {
		if err := ReadChunks(r, v[len(v):cap(v)], width, chunk, get); err != nil {
			return nil, err
		}
		v = v[:cap(v)]
		if len(v) == n {
			return v, nil
		}
		grown := make([]T, len(v), min(n, 2*len(v)))
		copy(grown, v)
		v = grown
	}
}

// PutFloat64s encodes src as little-endian float64 bit patterns.
func PutFloat64s(dst []byte, src []float64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// GetFloat64s decodes PutFloat64s' encoding; every bit pattern (NaN
// payloads included) is a valid value.
func GetFloat64s(dst []float64, src []byte) error {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

// putFloat32s encodes src narrowed to float32, little endian.
func putFloat32s(dst []byte, src []float64) {
	for i, x := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
	}
}

// getFloat32s decodes putFloat32s' encoding, widening to float64.
func getFloat32s(dst []float64, src []byte) error {
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
	return nil
}
