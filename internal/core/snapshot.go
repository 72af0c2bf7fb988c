// Deterministic run snapshots: serialize a RunState at a round boundary
// and reconstruct it bit-for-bit in a fresh process.
//
// The format is a versioned, magic-headered binary stream:
//
//	"FTRS" | version u8 | fingerprint string | common section | runner section
//
// The fingerprint is a canonical string of everything that determines the
// run's trajectory (runtime, method, policy, hyperparameters, seed,
// latency/device/churn models, dataset sizes, a hash of the partition).
// Resume recomputes it from the spec the caller provides and refuses a
// snapshot whose fingerprint differs — a snapshot only carries the *live*
// state (model, RNG positions, event heap, metrics); everything
// re-derivable from the spec (datasets, partitions, device speeds,
// engines) is rebuilt, which keeps snapshots |w|-sized instead of
// dataset-sized.
//
// What makes the resumed run bit-identical to an uninterrupted one:
//
//   - Every RNG is a named splitmix64 stream whose position serializes in
//     17 bytes (internal/prng). Unmaterialized client streams re-derive
//     from the seed registry.
//   - Snapshot quiesces: every in-flight job's local training is joined
//     first. Training physically completes before its virtual arrival in
//     any run, so joining early changes nothing — and afterwards the
//     per-client state and the job's finished update are plain data.
//   - Order-sensitive scheduler state serializes verbatim: the idle set's
//     ids array (a uniform pick indexes into it, so its order is part of
//     the trajectory), the event heap's array layout, the churn heap.
//   - Optimizer state needs no section: every local round begins with
//     opt.Reset() (pinned by the optim package's tests), so there is no
//     cross-round optimizer state to save.
//
// Not snapshottable: methods with server-side aggregation state outside
// RunState (Aggregator/PreRounder implementors — SlowMo's momentum,
// SCAFFOLD's c, ...). Snapshot refuses them with a precise error rather
// than silently resuming a half-restored method.
package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/prng"
	"repro/internal/tensor"
)

const (
	snapMagic = "FTRS"
	// snapVersion 2 added per-job wire-byte fields, the pending-wire
	// recorder counter, and the transport-state section (error-feedback
	// residuals). Version 3 added the adversary section (per-client fault
	// assignment, noise-stream RNG positions) and the rejected-updates
	// counter. Version 4 switched the churn section to the compact
	// aggregate process (segment permutation + two clock times instead of
	// per-client phase arrays and an O(N) event heap), added the parked-
	// job remainder to job records, and made the adversary RNG array
	// optional (only the noise mode materializes it) — older snapshots
	// cannot be read by this build.
	snapVersion = 4
	// Every deserialized length is bounded by what the rebuilt run
	// implies (|w|, N, Rounds, Concurrency + BufferSize, the churn
	// model's drops); these cap the few the spec says nothing about:
	// the fingerprint, per-method state names, and how many of them a
	// client holds.
	snapMaxFingerprint = 1 << 16
	snapMaxName        = 1 << 10
	snapMaxKeys        = 1 << 10
)

// snapWriter is a little-endian binary writer with sticky-error
// accumulation: call sites stay linear and flush reports the first
// failure. Scalars encode through b8 and arrays through chunk, so a
// snapshot costs no allocation per value.
type snapWriter struct {
	w     *bufio.Writer
	err   error
	b8    [8]byte
	chunk [tensor.ChunkBytes]byte
	keys  []string // map-key sorting scratch, reused across clients
}

func newSnapWriter(w io.Writer) *snapWriter { return &snapWriter{w: bufio.NewWriter(w)} }

func (s *snapWriter) flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Write makes the writer an io.Writer for sections encoded by other
// packages (transport state).
func (s *snapWriter) Write(b []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	var n int
	n, s.err = s.w.Write(b)
	return n, s.err
}

func (s *snapWriter) u8(v uint8) {
	if s.err == nil {
		s.err = s.w.WriteByte(v)
	}
}

func (s *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.b8[:], v)
	s.Write(s.b8[:])
}

func (s *snapWriter) i64(v int64)   { s.u64(uint64(v)) }
func (s *snapWriter) num(v int)     { s.i64(int64(v)) }
func (s *snapWriter) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *snapWriter) boolv(v bool) {
	if v {
		s.u8(1)
	} else {
		s.u8(0)
	}
}

func (s *snapWriter) str(v string) {
	s.num(len(v))
	if s.err == nil {
		_, s.err = s.w.WriteString(v)
	}
}

// writeArray writes a length prefix and v's values, 8 bytes each, one
// chunk at a time.
func writeArray[T any](s *snapWriter, v []T, put func([]byte, []T)) {
	s.num(len(v))
	if s.err == nil {
		s.err = tensor.WriteChunks(s.w, v, 8, s.chunk[:], put)
	}
}

func (s *snapWriter) floats(v []float64) { writeArray(s, v, tensor.PutFloat64s) }
func (s *snapWriter) i64s(v []int64)     { writeArray(s, v, putInt64s) }

// i32s widens to 8 bytes per entry, as the v4 format has it.
func (s *snapWriter) i32s(v []int32) { writeArray(s, v, putInt32s) }

func (s *snapWriter) rngState(st prng.State) {
	s.u64(st.S)
	s.f64(st.Spare)
	s.boolv(st.HasSpare)
}

func putInt64s(dst []byte, src []int64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
	}
}

func putInt32s(dst []byte, src []int32) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(int64(x)))
	}
}

func getInt64s(dst []int64, src []byte) error {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

func getInt32s(dst []int32, src []byte) error {
	for i := range dst {
		x := int64(binary.LittleEndian.Uint64(src[8*i:]))
		if x < math.MinInt32 || x > math.MaxInt32 {
			return int32RangeError(x)
		}
		dst[i] = int32(x)
	}
	return nil
}

// int32RangeError is getInt32s' refusal: a stored value no int32 field
// could have written.
type int32RangeError int64

func (e int32RangeError) Error() string { return fmt.Sprintf("value %d out of range", int64(e)) }

func getBytes(dst []byte, src []byte) error {
	copy(dst, src)
	return nil
}

// snapReader mirrors snapWriter: little-endian reads with a sticky
// error. Truncation surfaces as a precise "truncated snapshot" error,
// not a zero value silently flowing into the run.
type snapReader struct {
	r     *bufio.Reader
	err   error
	b8    [8]byte
	chunk [tensor.ChunkBytes]byte
}

func newSnapReader(r io.Reader) *snapReader { return &snapReader{r: bufio.NewReader(r)} }

// fail records the first error.
func (s *snapReader) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// readFailed records a failed read of what: a decoder's refusal makes a
// corrupt snapshot, a failed or short read a truncated one.
func (s *snapReader) readFailed(what string, err error) {
	var bad int32RangeError
	if errors.As(err, &bad) {
		s.fail("core: corrupt snapshot: %s %v", what, err)
	} else {
		s.fail("core: truncated snapshot: %w", err)
	}
}

func (s *snapReader) raw(b []byte) {
	if s.err != nil {
		return
	}
	if _, err := io.ReadFull(s.r, b); err != nil {
		s.readFailed("", err)
	}
}

func (s *snapReader) u8() uint8 {
	if s.err != nil {
		return 0
	}
	b, err := s.r.ReadByte()
	if err != nil {
		s.readFailed("", err)
	}
	return b
}

func (s *snapReader) u64() uint64 {
	s.b8 = [8]byte{}
	s.raw(s.b8[:])
	return binary.LittleEndian.Uint64(s.b8[:])
}

func (s *snapReader) i64() int64   { return int64(s.u64()) }
func (s *snapReader) f64() float64 { return math.Float64frombits(s.u64()) }

func (s *snapReader) boolv() bool {
	switch v := s.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		s.fail("core: corrupt snapshot: bool byte %d", v)
		return false
	}
}

// length reads a collection length and bounds it.
func (s *snapReader) length(what string, max int) int {
	n := s.i64()
	if s.err != nil {
		return 0
	}
	if n < 0 || n > int64(max) {
		s.fail("core: corrupt snapshot: %s length %d outside [0,%d]", what, n, max)
		return 0
	}
	return int(n)
}

func (s *snapReader) num(what string) int {
	n := s.i64()
	if n < math.MinInt32 || n > math.MaxInt32 {
		s.fail("core: corrupt snapshot: %s value %d out of range", what, n)
		return 0
	}
	return int(n)
}

func (s *snapReader) str(what string, max int) string {
	return string(readArray(s, what, max, 1, getBytes))
}

// readArray reads a length prefix bounded by max and that many values,
// width bytes each. The values arrive one chunk at a time and the result
// grows with them, so a forged length backed by no data fails as a
// truncated snapshot without first allocating the length it claims.
func readArray[T any](s *snapReader, what string, max, width int, get func([]T, []byte) error) []T {
	n := s.length(what, max)
	if s.err != nil {
		return nil
	}
	v, err := tensor.ReadChunksN(s.r, n, width, s.chunk[:], get)
	if err != nil {
		s.readFailed(what, err)
		return nil
	}
	return v
}

// readArrayUpTo reads a length prefix bounded by max and decodes the
// values into buf's backing array (whose capacity is max), returning the
// filled prefix.
func readArrayUpTo[T any](s *snapReader, what string, buf []T, max int, get func([]T, []byte) error) []T {
	n := s.length(what, max)
	if s.err != nil {
		return buf[:0]
	}
	buf = slices.Grow(buf[:0], n)[:n]
	if err := tensor.ReadChunks(s.r, buf, 8, s.chunk[:], get); err != nil {
		s.readFailed(what, err)
	}
	return buf
}

// readArrayInto decodes an array that must fill dst exactly, in place.
func readArrayInto[T any](s *snapReader, what string, dst []T, get func([]T, []byte) error) {
	if got := readArrayUpTo(s, what, dst, len(dst), get); s.err == nil && len(got) != len(dst) {
		s.fail("core: corrupt snapshot: %s sized %d, the spec builds %d", what, len(got), len(dst))
	}
}

func (s *snapReader) floats(what string, max int) []float64 {
	return readArray(s, what, max, 8, tensor.GetFloat64s)
}

func (s *snapReader) i64s(what string, max int) []int64 {
	return readArray(s, what, max, 8, getInt64s)
}

func (s *snapReader) i32s(what string, max int) []int32 {
	return readArray(s, what, max, 8, getInt32s)
}

func (s *snapReader) rngState() prng.State {
	var st prng.State
	st.S = s.u64()
	st.Spare = s.f64()
	st.HasSpare = s.boolv()
	return st
}

// fingerprint canonically renders everything that determines the run's
// trajectory. Resume compares it string-to-string, so a mismatch error
// names exactly what the caller changed. Function-valued fields (hooks,
// a custom Discount) and Shards cannot be fingerprinted — Shards never
// affects a trajectory by construction, and the resolved policy name
// covers the built-in discount chain; a bespoke Discount function is the
// caller's responsibility to keep identical across resume.
func (sp *RunSpec) fingerprint(numParams int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runtime=%s algo=%s policy=%s", sp.Runtime, sp.Algo.Name(), sp.Policy.Name())
	fmt.Fprintf(&b, " rounds=%d n=%d k=%d batch=%d epochs=%d", sp.Rounds, len(sp.Parts), sp.ClientsPerRound, sp.BatchSize, sp.LocalEpochs)
	fmt.Fprintf(&b, " lr=%g mom=%g clip=%g seed=%d evalevery=%d", sp.LR, sp.Momentum, sp.ClipNorm, sp.Seed, sp.EvalEvery)
	fmt.Fprintf(&b, " conc=%d buf=%d", sp.Concurrency, sp.BufferSize)
	lat, dev, ch, net, fa := "none", "none", "none", "none", "none"
	if sp.Latency != nil {
		lat = sp.Latency.String()
	}
	if sp.Devices != nil {
		dev = sp.Devices.String()
	}
	if sp.Churn != nil {
		ch = sp.Churn.String()
	}
	if sp.Network != nil {
		net = sp.Network.String()
	}
	if sp.Faults != nil {
		fa = sp.Faults.String()
	}
	fmt.Fprintf(&b, " latency=%s devices=%s floprate=%g adaptive=%t churn=%s network=%s faults=%s", lat, dev, sp.FlopRate, sp.AdaptiveLocalSteps, ch, net, fa)
	fmt.Fprintf(&b, " target=%g stop=%t transport=%s", sp.TargetAccuracy, sp.StopAtTarget, transportName(sp.Transport))
	// The partition is re-derived by the caller; an FNV-1a hash over the
	// per-client sizes catches the common mistake (different -alpha or
	// client count) without embedding N index slices in every header.
	h := uint64(14695981039346656037)
	for _, p := range sp.Parts {
		h = (h ^ uint64(len(p))) * 1099511628211
	}
	fmt.Fprintf(&b, " params=%d train=%d test=%d parts=%016x", numParams, sp.Train.Len(), sp.Test.Len(), h)
	return b.String()
}

// transportName canonically names a transport for the fingerprint: its
// spec string when it has one (every ParseTransport result does), nil as
// "none", anything else as "custom". A resumed run must configure a
// transport with the same name — wire sizes and decode behaviour are
// part of the trajectory once communication is measured or priced.
func transportName(t Transport) string {
	switch t := t.(type) {
	case nil:
		return "none"
	case fmt.Stringer:
		return t.String()
	}
	return "custom"
}

// Snapshot serializes the run's complete live state at the current round
// boundary. The run stays usable afterwards: Snapshot quiesces in-flight
// training (a pure reordering of work that was about to happen anyway)
// but drops nothing, so snapshot-and-continue and snapshot-and-exit both
// work. Returns an error for methods whose aggregation state lives
// outside the runtime (Aggregator/PreRounder implementors).
func (rs *RunState) Snapshot(w io.Writer) error {
	s := rs.run.server()
	if _, ok := s.cfg.Algo.(Aggregator); ok {
		return fmt.Errorf("core: cannot snapshot a %s run: the method keeps server-side aggregation state the runtime cannot serialize", s.cfg.Algo.Name())
	}
	if _, ok := s.cfg.Algo.(PreRounder); ok {
		return fmt.Errorf("core: cannot snapshot a %s run: the method keeps pre-round server state the runtime cannot serialize", s.cfg.Algo.Name())
	}
	rs.run.quiesce()
	rec := rs.run.recorder()
	rec.syncEvals()

	sw := newSnapWriter(w)
	sw.Write([]byte(snapMagic))
	sw.u8(snapVersion)
	sw.str(rs.spec.fingerprint(len(s.global)))
	rs.snapshotCommon(sw)
	if err := snapshotTransport(sw, s.cfg.Transport); err != nil {
		return err
	}
	rs.run.snapshotBody(sw)
	return sw.flush()
}

// snapshotTransport serializes a StatefulTransport's run-long state
// (error-feedback residuals) as a presence flag plus a length-prefixed
// blob. A counting pass sizes the blob, then the state streams straight
// into the snapshot: Snapshot runs quiesced, so no transfer mutates the
// state between the two passes.
func snapshotTransport(sw *snapWriter, t Transport) error {
	st, ok := t.(StatefulTransport)
	sw.boolv(ok)
	if !ok {
		return nil
	}
	var size countWriter
	if err := st.SnapshotState(&size); err != nil {
		return fmt.Errorf("core: snapshot transport state: %w", err)
	}
	sw.i64(size.n)
	body := countWriter{w: sw}
	if err := st.SnapshotState(&body); err != nil {
		return fmt.Errorf("core: snapshot transport state: %w", err)
	}
	if sw.err == nil && body.n != size.n {
		return fmt.Errorf("core: snapshot transport state: streamed %d bytes, counted %d", body.n, size.n)
	}
	return nil
}

// countWriter counts the bytes written through it, forwarding them to w
// when there is one.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	if c.w == nil {
		return len(b), nil
	}
	return c.w.Write(b)
}

// sectionReader hands a transport exactly its section of the snapshot
// and records whether the stream ended inside it.
type sectionReader struct {
	r     io.Reader
	n     int64
	short bool
}

func (s *sectionReader) Read(b []byte) (int, error) {
	if s.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > s.n {
		b = b[:s.n]
	}
	k, err := s.r.Read(b)
	s.n -= int64(k)
	if err == io.EOF && s.n > 0 {
		s.short = true
		err = io.ErrUnexpectedEOF
	}
	return k, err
}

// restoreTransport is snapshotTransport's inverse, run against the fresh
// transport the resume spec configured.
func restoreTransport(sr *snapReader, t Transport) error {
	has := sr.boolv()
	if sr.err != nil {
		return sr.err
	}
	st, ok := t.(StatefulTransport)
	if has != ok {
		return fmt.Errorf("core: snapshot transport state present=%t, spec transport stateful=%t", has, ok)
	}
	if !has {
		return nil
	}
	// The transport bounds its own counts and reads its vectors as their
	// bytes arrive; the section length only has to be present.
	n := sr.length("transport state", math.MaxInt)
	if sr.err != nil {
		return sr.err
	}
	sec := &sectionReader{r: sr.r, n: int64(n)}
	err := st.RestoreState(sec)
	switch {
	case sec.short:
		return fmt.Errorf("core: truncated snapshot: transport state ends %d bytes short", sec.n)
	case err != nil:
		return fmt.Errorf("core: restore transport state: %w", err)
	case sec.n != 0:
		return fmt.Errorf("core: corrupt snapshot: transport state leaves %d of its bytes unread", sec.n)
	}
	return nil
}

// snapshotCommon serializes the state shared by every runtime: the
// global model, the selection stream, the client population, and the
// recorder (metric series plus the published accuracies).
func (rs *RunState) snapshotCommon(sw *snapWriter) {
	s := rs.run.server()
	sw.floats(s.global)
	sw.rngState(s.rng.State())

	sw.num(len(s.clients))
	for _, c := range s.clients {
		sw.boolv(c.Hist != nil)
		if c.Hist != nil {
			sw.floats(c.Hist)
		}
		sw.num(c.LastRound)
		sw.boolv(c.rng != nil)
		if c.rng != nil {
			sw.rngState(c.rng.State())
		}
		sw.i64(c.Counter.Total())
		writeScalarMap(sw, c.scalars)
		writeVecMap(sw, c.state)
	}

	// Adversary section: the fault assignment (re-derived on resume and
	// cross-checked — it is a pure function of the spec and seed) and the
	// noise clients' private RNG positions, which are live state.
	sw.boolv(s.faults != nil)
	if s.faults != nil {
		sw.num(len(s.faults))
		for _, f := range s.faults {
			sw.u8(uint8(f))
		}
		// Only the noise mode materializes per-client adversary streams;
		// crash/zero/sign fleets carry no such state.
		sw.boolv(s.advRng != nil)
		for _, rng := range s.advRng {
			sw.boolv(rng != nil)
			if rng != nil {
				sw.rngState(rng.State())
			}
		}
	}

	rec := rs.run.recorder()
	res := rec.res
	sw.num(res.Rounds)
	sw.floats(res.TrainLoss)
	sw.i64s(res.CommBytesByRound)
	sw.floats(res.GFLOPsByRound)
	sw.floats(res.SimTimeByRound)
	sw.floats(res.MeanStalenessByRound)
	sw.num(res.DroppedUpdates)
	sw.num(res.RejectedUpdates)
	sw.num(res.RoundsToTarget)
	sw.i64(rec.cumComm)
	sw.i64(rec.wirePending)
	sw.num(rec.prevEval)
	sw.num(rec.lastSubmitted)
	sw.f64(rec.lastAcc)
	accs := rec.ev.exportAccs()
	rounds := make([]int, 0, len(accs))
	for r := range accs {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	sw.num(len(rounds))
	for _, r := range rounds {
		sw.num(r)
		sw.f64(accs[r])
	}
}

// restoreCommon is snapshotCommon's inverse, with structural validation
// against the freshly built run.
func (rs *RunState) restoreCommon(sr *snapReader) {
	s := rs.run.server()
	readArrayInto(sr, "global model", s.global, tensor.GetFloat64s)
	if sr.err != nil {
		return
	}
	s.rng.SetState(sr.rngState())

	n := sr.num("client count")
	if sr.err == nil && n != len(s.clients) {
		sr.fail("core: corrupt snapshot: %d clients, the spec builds %d", n, len(s.clients))
	}
	for i := 0; i < n && sr.err == nil; i++ {
		c := s.clients[i]
		if sr.boolv() {
			hist := sr.floats("client historical model", len(s.global))
			if sr.err == nil && len(hist) != len(s.global) {
				sr.fail("core: corrupt snapshot: client %d historical model has %d parameters, want %d", i, len(hist), len(s.global))
			}
			c.Hist = hist
		} else {
			c.Hist = nil
		}
		c.LastRound = sr.num("client last round")
		if sr.boolv() {
			if c.rng == nil {
				c.rng = prng.New(0)
			}
			c.rng.SetState(sr.rngState())
		} else {
			c.rng = nil
		}
		total := sr.i64()
		c.Counter.Reset()
		c.Counter.Add(total)
		c.scalars = readScalarMap(sr)
		c.state = readVecMap(sr, len(s.global))
	}

	hasFaults := sr.boolv()
	if sr.err == nil && hasFaults != (s.faults != nil) {
		sr.fail("core: corrupt snapshot: adversary section present=%t, spec faults present=%t", hasFaults, s.faults != nil)
	}
	if sr.err == nil && hasFaults {
		nf := sr.num("fault assignment count")
		if sr.err == nil && nf != len(s.faults) {
			sr.fail("core: corrupt snapshot: %d fault assignments, the spec derives %d", nf, len(s.faults))
		}
		for i := 0; i < nf && sr.err == nil; i++ {
			f := faultClass(sr.u8())
			if sr.err != nil {
				break
			}
			if f > faultClassLimit {
				sr.fail("core: corrupt snapshot: fault class %d", f)
			} else if f != s.faults[i] {
				// The assignment is a pure function of (population, model,
				// seed); a mismatch means the snapshot came from a
				// different adversary stream.
				sr.fail("core: corrupt snapshot: client %d fault class %d, the spec derives %d", i, f, s.faults[i])
			}
		}
		hasAdvRng := sr.boolv()
		if sr.err == nil && hasAdvRng != (s.advRng != nil) {
			sr.fail("core: corrupt snapshot: adversary streams present=%t, spec derives=%t", hasAdvRng, s.advRng != nil)
		}
		for i := 0; hasAdvRng && i < nf && sr.err == nil; i++ {
			if sr.boolv() {
				if s.advRng[i] == nil {
					sr.fail("core: corrupt snapshot: client %d carries an adversary stream the spec does not derive", i)
					break
				}
				s.advRng[i].SetState(sr.rngState())
			} else if sr.err == nil && s.advRng[i] != nil {
				sr.fail("core: corrupt snapshot: client %d is missing its adversary stream position", i)
			}
		}
	}

	rec := rs.run.recorder()
	res := rec.res
	rounds := s.cfg.Rounds
	res.Rounds = sr.length("recorded rounds", rounds)
	res.TrainLoss = sr.floats("train-loss series", rounds)
	res.CommBytesByRound = sr.i64s("comm-bytes series", rounds)
	res.GFLOPsByRound = sr.floats("gflops series", rounds)
	res.SimTimeByRound = sr.floats("sim-time series", rounds)
	res.MeanStalenessByRound = sr.floats("staleness series", rounds)
	res.DroppedUpdates = sr.num("dropped updates")
	res.RejectedUpdates = sr.num("rejected updates")
	s.rejectedUpdates = res.RejectedUpdates
	s.rejectLogged = res.RejectedUpdates > 0
	res.RoundsToTarget = sr.num("rounds to target")
	rec.cumComm = sr.i64()
	rec.wirePending = sr.i64()
	rec.prevEval = sr.num("previous evaluation round")
	rec.lastSubmitted = sr.num("last submitted evaluation round")
	rec.lastAcc = sr.f64()
	// Evaluated rounds are 0..Rounds, written in increasing order, and
	// include the last submitted one (Snapshot waits for it; a resumed
	// Snapshot would wait forever for one that is missing).
	nAccs := sr.length("accuracy map", rounds+1)
	accs := make(map[int]float64, nAccs)
	for i, prev := 0, -1; i < nAccs && sr.err == nil; i++ {
		r := sr.num("accuracy round")
		if sr.err == nil && r <= prev {
			sr.fail("core: corrupt snapshot: accuracy round %d after %d", r, prev)
		}
		accs[r], prev = sr.f64(), r
	}
	if _, ok := accs[rec.lastSubmitted]; sr.err == nil && rec.lastSubmitted > 0 && !ok {
		sr.fail("core: corrupt snapshot: no accuracy for the last submitted round %d", rec.lastSubmitted)
	}
	if sr.err == nil {
		rec.ev.preload(accs)
	}
	if sr.err == nil && (len(res.TrainLoss) != res.Rounds || len(res.CommBytesByRound) != res.Rounds || len(res.GFLOPsByRound) != res.Rounds) {
		sr.fail("core: corrupt snapshot: metric series lengths (%d/%d/%d) disagree with %d recorded rounds",
			len(res.TrainLoss), len(res.CommBytesByRound), len(res.GFLOPsByRound), res.Rounds)
	}
}

// sortedKeys returns m's keys in order, in the writer's scratch slice:
// the result is valid until the next call, and an empty map costs
// nothing.
func sortedKeys[V any](sw *snapWriter, m map[string]V) []string {
	keys := sw.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sw.keys = keys
	return keys
}

func writeScalarMap(sw *snapWriter, m map[string]float64) {
	sw.num(len(m))
	for _, k := range sortedKeys(sw, m) {
		sw.str(k)
		sw.f64(m[k])
	}
}

// readMapKey reads the i-th key of a map section, which must sort after
// the previous one: the writer emits keys in strictly increasing order.
func readMapKey(sr *snapReader, what string, i int, prev string) string {
	k := sr.str(what, snapMaxName)
	if sr.err == nil && i > 0 && k <= prev {
		sr.fail("core: corrupt snapshot: %s %q after %q", what, k, prev)
	}
	return k
}

func readScalarMap(sr *snapReader) map[string]float64 {
	n := sr.length("scalar map", snapMaxKeys)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i, k := 0, ""; i < n && sr.err == nil; i++ {
		k = readMapKey(sr, "scalar name", i, k)
		m[k] = sr.f64()
	}
	return m
}

func writeVecMap(sw *snapWriter, m map[string][]float64) {
	sw.num(len(m))
	for _, k := range sortedKeys(sw, m) {
		sw.str(k)
		sw.floats(m[k])
	}
}

func readVecMap(sr *snapReader, numParams int) map[string][]float64 {
	n := sr.length("state-vector map", snapMaxKeys)
	if n == 0 {
		return nil
	}
	m := make(map[string][]float64, n)
	for i, k := 0, ""; i < n && sr.err == nil; i++ {
		k = readMapKey(sr, "state-vector name", i, k)
		v := sr.floats("state vector", numParams)
		if sr.err == nil && len(v) != numParams {
			sr.fail("core: corrupt snapshot: state vector %q has %d elements, want %d", k, len(v), numParams)
			return nil
		}
		m[k] = v
	}
	return m
}

// writeJob serializes one quiesced in-flight (or buffered) job: its
// scheduling key, dispatch parameters, and the finished update. The
// global-model snapshot the client trained from is NOT serialized — the
// training already consumed it.
func writeJob(sw *snapWriter, j *trainJob) {
	sw.num(j.c.ID)
	sw.num(j.round)
	sw.f64(j.finish)
	sw.num(j.seq)
	sw.num(j.steps)
	sw.f64(j.speed)
	sw.f64(j.remaining)
	sw.boolv(j.dropped)
	sw.i64(j.flops)
	sw.i64(j.downBytes)
	sw.i64(j.upBytes)
	sw.num(j.update.ClientID)
	sw.floats(j.update.Params)
	sw.num(j.update.NumSamples)
	sw.f64(j.update.TrainLoss)
}

// readJob reconstructs a quiesced job. The done channel carries no token
// and trained is true: the arrival path must not (and will not) join it
// again; paramsPool.put(nil) on the absent global snapshot is a no-op.
func readJob(sr *snapReader, s *Server) *trainJob {
	id := sr.num("job client")
	if sr.err == nil && (id < 0 || id >= len(s.clients)) {
		sr.fail("core: corrupt snapshot: job client %d outside population of %d", id, len(s.clients))
	}
	if sr.err != nil {
		return nil
	}
	j := &trainJob{
		c:       s.clients[id],
		done:    make(chan struct{}, 1),
		trained: true,
		heapIdx: -1,
	}
	j.round = sr.num("job round")
	j.finish = sr.f64()
	j.seq = sr.num("job sequence")
	j.steps = sr.num("job steps")
	j.speed = sr.f64()
	j.remaining = sr.f64()
	j.dropped = sr.boolv()
	j.flops = sr.i64()
	j.downBytes = sr.i64()
	j.upBytes = sr.i64()
	j.update.ClientID = sr.num("update client")
	j.update.Params = sr.floats("update params", len(s.global))
	j.update.NumSamples = sr.num("update samples")
	j.update.TrainLoss = sr.f64()
	j.update.pooled = true
	if sr.err == nil && len(j.update.Params) != len(s.global) {
		sr.fail("core: corrupt snapshot: job update has %d parameters, want %d", len(j.update.Params), len(s.global))
		return nil
	}
	return j
}

// writePopulation serializes the scheduler-facing fleet state. The idle
// set's ids array is order-sensitive — a uniform pick indexes into it —
// so it serializes verbatim, not as a set.
func writePopulation(sw *snapWriter, p *population) {
	sw.i32s(p.dispatches)
	sw.i32s(p.idle.ids)
}

func readPopulation(sr *snapReader, p *population) {
	n := len(p.dispatches)
	readArrayInto(sr, "dispatch counts", p.dispatches, getInt32s)
	p.idle.ids = readArrayUpTo(sr, "idle set", p.idle.ids, n, getInt32s)
	if sr.err != nil {
		return
	}
	for i := range p.idle.pos {
		p.idle.pos[i] = -1
	}
	for i, id := range p.idle.ids {
		if id < 0 || int(id) >= n || p.idle.pos[id] >= 0 {
			sr.fail("core: corrupt snapshot: idle set entry %d = %d: outside population of %d or repeated", i, id, n)
			return
		}
		p.idle.pos[id] = int32(i)
	}
}

// writeChurn serializes the aggregate availability process: the segment
// permutation (order-sensitive — the which-client pick indexes into it),
// the three live-segment boundaries, the two exponential clock times,
// the scheduled-event heap in array order, and the mass-suspension
// rejoin groups.
func writeChurn(sw *snapWriter, c *churn) {
	sw.i32s(c.order)
	sw.num(c.nUp)
	sw.num(c.nDown)
	sw.num(c.nSusp)
	sw.f64(c.nextDrop)
	sw.f64(c.nextRejoin)
	sw.i64(c.seq)
	sw.rngState(c.rng.State())
	sw.num(len(c.h.es))
	for _, e := range c.h.es {
		sw.f64(e.at)
		sw.i64(e.seq)
		sw.i64(int64(e.id))
		sw.u8(uint8(e.kind))
	}
	sw.num(len(c.groups))
	for _, g := range c.groups {
		sw.i32s(g)
	}
}

func readChurn(sr *snapReader, c *churn) {
	n := c.n
	readArrayInto(sr, "churn order", c.order, getInt32s)
	if sr.err != nil {
		return
	}
	for i := range c.pos {
		c.pos[i] = -1
	}
	for p, id := range c.order {
		if id < 0 || int(id) >= n || c.pos[id] >= 0 {
			sr.fail("core: corrupt snapshot: churn order is not a permutation (entry %d = %d)", p, id)
			return
		}
		c.pos[id] = int32(p)
	}
	c.nUp = sr.num("churn online count")
	c.nDown = sr.num("churn offline count")
	c.nSusp = sr.num("churn suspended count")
	if sr.err == nil && (c.nUp < 0 || c.nDown < 0 || c.nSusp < 0 || c.nUp+c.nDown+c.nSusp > n) {
		sr.fail("core: corrupt snapshot: churn segments %d/%d/%d exceed population of %d", c.nUp, c.nDown, c.nSusp, n)
		return
	}
	c.nextDrop = sr.f64()
	c.nextRejoin = sr.f64()
	c.seq = sr.i64()
	c.rng.SetState(sr.rngState())
	// Each scheduled mass drop is pending as its own event or, once fired,
	// as its group's rejoin.
	drops := len(c.model.Drops)
	nEvents := sr.length("churn event heap", drops)
	c.h.es = c.h.es[:0]
	for i := 0; i < nEvents && sr.err == nil; i++ {
		var e churnEvent
		e.at = sr.f64()
		e.seq = sr.i64()
		e.id = int32(sr.num("churn event id"))
		e.kind = churnEventKind(sr.u8())
		if sr.err == nil && (e.kind > churnGroupRejoin || e.kind == churnMass && (e.id < 0 || int(e.id) >= drops)) {
			sr.fail("core: corrupt snapshot: churn event kind %d id %d", e.kind, e.id)
			return
		}
		c.h.es = append(c.h.es, e)
	}
	nGroups := sr.length("churn rejoin groups", drops)
	c.groups = c.groups[:0]
	for i := 0; i < nGroups && sr.err == nil; i++ {
		g := sr.i32s("churn rejoin group", n)
		for _, id := range g {
			if id < 0 || int(id) >= n {
				sr.fail("core: corrupt snapshot: churn group member %d outside population of %d", id, n)
				return
			}
		}
		c.groups = append(c.groups, g)
	}
	for _, e := range c.h.es {
		if e.kind == churnGroupRejoin && (e.id < 0 || int(e.id) >= len(c.groups)) {
			sr.fail("core: corrupt snapshot: churn group-rejoin event references group %d of %d", e.id, len(c.groups))
			return
		}
	}
}

// --- per-runner bodies ---

// The sync body is the round counter alone: without a clock the FLOP
// total is the sum of the per-client counters, which restoreCommon has
// already brought back.
func (r *barrierRunner) snapshotBody(sw *snapWriter) {
	sw.num(r.t)
	if r.a == nil {
		return
	}
	sw.i64(r.flopsTotal)
	sw.f64(r.a.now)
	sw.rngState(r.a.latRng.State())
	writePopulation(sw, r.a.pop)
}

func (r *barrierRunner) restoreBody(sr *snapReader) error {
	r.t = sr.num("completed rounds")
	if r.a == nil {
		r.flopsTotal = countedFlops(r.s.clients)
		return sr.err
	}
	r.flopsTotal = sr.i64()
	r.a.now = sr.f64()
	r.a.latRng.SetState(sr.rngState())
	readPopulation(sr, r.a.pop)
	return sr.err
}

func (r *bufferedRunner) snapshotBody(sw *snapWriter) {
	a := r.a
	sw.num(r.aggs)
	sw.num(r.seq)
	sw.i64(r.flopsTotal)
	sw.f64(a.now)
	sw.rngState(a.latRng.State())
	writePopulation(sw, a.pop)
	// The event heap in array order: restoring verbatim (heapIdx = slot)
	// preserves both the heap invariant and the exact layout, so a
	// resumed run's pops and sift paths replay identically.
	sw.num(len(r.inflight.js))
	for _, j := range r.inflight.js {
		writeJob(sw, j)
	}
	sw.num(len(r.buffer))
	for _, j := range r.buffer {
		writeJob(sw, j)
	}
	sw.boolv(a.churn != nil)
	if a.churn != nil {
		writeChurn(sw, a.churn)
	}
}

func (r *bufferedRunner) restoreBody(sr *snapReader) error {
	a, s := r.a, r.a.s
	r.aggs = sr.num("completed aggregations")
	r.seq = sr.num("dispatch sequence")
	r.flopsTotal = sr.i64()
	a.now = sr.f64()
	a.latRng.SetState(sr.rngState())
	readPopulation(sr, a.pop)
	nInflight := sr.length("in-flight jobs", a.spec.Concurrency)
	r.inflight.js = r.inflight.js[:0]
	for i := 0; i < nInflight && sr.err == nil; i++ {
		j := readJob(sr, s)
		if j == nil {
			break
		}
		if r.inflight.slot[j.c.ID] != 0 {
			sr.fail("core: corrupt snapshot: client %d in flight twice", j.c.ID)
			break
		}
		j.heapIdx = i
		r.inflight.js = append(r.inflight.js, j)
		r.inflight.slot[j.c.ID] = int32(i) + 1
	}
	// Live jobs never exceed Concurrency + BufferSize (the free list's
	// bound); at a round boundary the buffer has just merged and is empty.
	nBuffer := sr.length("buffered jobs", a.spec.Concurrency+a.spec.BufferSize)
	r.buffer = r.buffer[:0]
	for i := 0; i < nBuffer && sr.err == nil; i++ {
		j := readJob(sr, s)
		if j == nil {
			break
		}
		r.buffer = append(r.buffer, j)
	}
	hasChurn := sr.boolv()
	if sr.err == nil && hasChurn != (a.churn != nil) {
		sr.fail("core: corrupt snapshot: churn section present=%t, spec churn present=%t", hasChurn, a.churn != nil)
	}
	if sr.err == nil && hasChurn {
		readChurn(sr, a.churn)
	}
	return sr.err
}

// ResumeSpec describes how to reconstruct a snapshotted run. Spec must
// rebuild the same run the snapshot was taken from: same method, policy,
// hyperparameters, seed, datasets, partition, and transport spec —
// Resume verifies this against the snapshot's fingerprint and reports
// exactly what differs. Function-valued fields (Logf, OnRound,
// OnUpdates) may differ freely; they are not part of the trajectory
// fingerprint. The Transport must be a fresh instance of the same spec
// (same fingerprint name); a StatefulTransport's run-long state
// (error-feedback residuals) is restored from the snapshot.
type ResumeSpec struct {
	Spec RunSpec
}

// Resume reconstructs a run from a Snapshot stream and returns it
// positioned at the snapshotted round boundary, ready to Step (or Run)
// onward. The continuation is bit-for-bit identical to the original run
// having never stopped: same model trajectory, same metric series, same
// RNG draws. SizedTransport comm accounting resumes exactly (per-job
// wire bytes and the pending-wire counter are serialized); one caveat
// remains for legacy MeteredTransport-only transports, whose cumulative
// counters restart at zero in the new process.
func Resume(r io.Reader, rspec ResumeSpec) (*RunState, error) {
	spec := rspec.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rs, err := newRunState(spec)
	if err != nil {
		return nil, err
	}
	if err := rs.restore(r); err != nil {
		rs.Close()
		return nil, err
	}
	return rs, nil
}

// restore reads a snapshot stream into the freshly built run.
func (rs *RunState) restore(r io.Reader) error {
	sr := newSnapReader(r)
	var magic [4]byte
	sr.raw(magic[:])
	if sr.err != nil {
		return sr.err
	}
	if string(magic[:]) != snapMagic {
		return fmt.Errorf("core: not a run snapshot (magic %q, want %q)", magic[:], snapMagic)
	}
	if v := sr.u8(); sr.err == nil && v != snapVersion {
		return fmt.Errorf("core: run snapshot version %d, this build reads version %d", v, snapVersion)
	}
	theirs := sr.str("fingerprint", snapMaxFingerprint)
	if sr.err != nil {
		return sr.err
	}
	ours := rs.spec.fingerprint(len(rs.run.server().global))
	if theirs != ours {
		return fmt.Errorf("core: snapshot was taken from a different run:\n  snapshot: %s\n  spec:     %s", theirs, ours)
	}
	rs.restoreCommon(sr)
	if sr.err != nil {
		return sr.err
	}
	if err := restoreTransport(sr, rs.run.server().cfg.Transport); err != nil {
		return err
	}
	if err := rs.run.restoreBody(sr); err != nil {
		return err
	}
	// The runner section ends the snapshot: anything after it is not
	// part of this format, and a re-snapshot could not reproduce it.
	if _, err := sr.r.ReadByte(); err == nil {
		return fmt.Errorf("core: corrupt snapshot: trailing bytes after the runner section")
	} else if err != io.EOF {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	return nil
}
