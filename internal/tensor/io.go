package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Vector serialization: a compact, versioned binary format for flat
// parameter vectors (model checkpoints, server state). Layout:
//
//	magic   [4]byte  "FTV1"
//	count   uint64   number of float64 values
//	values  count * float64, little endian
//
// WriteVectorF32/ReadVectorF32 use the same layout with magic "FTV2" and
// float32 payloads — the transport precision the paper's communication
// accounting assumes.

var (
	magicF64 = [4]byte{'F', 'T', 'V', '1'}
	magicF32 = [4]byte{'F', 'T', 'V', '2'}
)

// maxVectorLen rejects corrupt headers outright (16 GiB of float64s);
// below it, reading allocates only as the payload actually arrives.
const maxVectorLen = 1 << 31

// WriteVector writes v in full float64 precision.
func WriteVector(w io.Writer, v []float64) error {
	return writeVector(w, magicF64, v, 8, PutFloat64s)
}

// ReadVector reads a float64 vector written by WriteVector.
func ReadVector(r io.Reader) ([]float64, error) {
	return readVector(r, magicF64, 8, GetFloat64s)
}

// WriteVectorF32 writes v at float32 transport precision (half the bytes;
// this is the precision the paper's MB columns assume).
func WriteVectorF32(w io.Writer, v []float64) error {
	return writeVector(w, magicF32, v, 4, putFloat32s)
}

// ReadVectorF32 reads a float32 vector written by WriteVectorF32,
// widening to float64.
func ReadVectorF32(r io.Reader) ([]float64, error) {
	return readVector(r, magicF32, 4, getFloat32s)
}

func writeVector(w io.Writer, magic [4]byte, v []float64, width int, put func([]byte, []float64)) error {
	var head [12]byte
	copy(head[:], magic[:])
	binary.LittleEndian.PutUint64(head[4:], uint64(len(v)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	return WriteChunks(w, v, width, chunkFor(len(v), width), put)
}

func readVector(r io.Reader, magic [4]byte, width int, get func([]float64, []byte) error) ([]float64, error) {
	var head [12]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return nil, fmt.Errorf("tensor: reading vector magic: %w", err)
	}
	if [4]byte(head[:4]) != magic {
		return nil, fmt.Errorf("tensor: bad vector magic %q (want %q)", head[:4], magic)
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return nil, fmt.Errorf("tensor: reading vector length: %w", err)
	}
	count := binary.LittleEndian.Uint64(head[4:])
	if count > maxVectorLen {
		return nil, fmt.Errorf("tensor: vector length %d implausibly large", count)
	}
	v, err := ReadChunksN(r, int(count), width, chunkFor(int(count), width), get)
	if err != nil {
		return nil, fmt.Errorf("tensor: reading vector payload: %w", err)
	}
	return v, nil
}

// VectorWireSizeF32 returns the encoded size in bytes of a float32
// vector message of length n (header + payload), used by the comm layer's
// byte accounting.
func VectorWireSizeF32(n int) int64 { return 4 + 8 + 4*int64(n) }
