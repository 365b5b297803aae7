package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Kind discriminates frame payloads. The runtime's exchange phases and the
// driver/rank protocol of the multi-process runtime share this one set.
type Kind uint8

const (
	KindInvalid Kind = iota
	// KindHello identifies a peer on a fresh connection (Src = sender rank,
	// Step = sender's fleet generation). A connection whose hello carries a
	// generation older than the newest one seen from that rank is fenced:
	// every frame it delivers is discarded, which is what makes duplicate or
	// reordered pre-death traffic harmless across a rejoin.
	KindHello
	// KindConfig ships the run configuration + serialized model to a rank
	// daemon (Bytes = JSON).
	KindConfig
	// KindRebuild broadcasts ownership and wrapped global positions at a
	// neighbor-list rebuild (Ints = owning rank per atom, Vecs = positions).
	KindRebuild
	// KindCounts returns a rank's workload counters after a rebuild
	// (rank -> driver; Ints = [interior pairs, ghosts, ghosts owned by
	// other ranks, pairs]).
	KindCounts
	// KindFwdPlan is the receiver-driven ghost plan: dst tells src which
	// global atoms it needs, in dst's ghost-arena order (Ints = atom ids).
	// The reverse exchange runs the same plan transposed.
	KindFwdPlan
	// KindGhostPos carries one step's ghost positions for a link, in the
	// agreed forward-plan order (Vecs).
	KindGhostPos
	// KindRows carries one step's ghost force partials back to the atoms'
	// owner, in the forward-plan order: per ghost three exact fixed-point
	// sums of four words each (Ints, 12 per ghost).
	KindRows
	// KindOwnedPos pushes a rank's owned wrapped positions for one step
	// (driver -> rank; Vecs).
	KindOwnedPos
	// KindForces returns a rank's step result to the driver: its owned
	// atoms' forces, rounded, in ascending atom order (Vecs), its exact
	// energy partial (Ints, four words) and its phase timers (Scalars).
	KindForces
	// KindStatsReq asks a rank daemon for its transport link statistics.
	KindStatsReq
	// KindStatsRep answers KindStatsReq (Bytes = JSON []LinkStats).
	KindStatsRep
	// KindHeartbeat and KindHeartbeatAck are the liveness probes of the TCP
	// transport; they never surface through Recv.
	KindHeartbeat
	KindHeartbeatAck
	// KindDeath is synthesized into live inboxes when a peer dies
	// (Src = the dead rank).
	KindDeath
	// KindShutdown tells a rank daemon to exit cleanly.
	KindShutdown
	// KindReplica streams one rank's owned-atom state to its buddy rank
	// (Step = MD step of the snapshot; Ints = global atom ids; Vecs =
	// positions then velocities, 2*len(Ints) entries).
	KindReplica
	// KindReplicaReq asks a rank for every replica shard it holds
	// (driver -> rank; Step = request tick, echoed by the reply).
	KindReplicaReq
	// KindReplicaRep answers KindReplicaReq with all stored shards packed
	// into one frame (Ints = [nShards, then per shard: owner, nIds, then all
	// ids concatenated]; Scalars = per-shard snapshot steps; Vecs =
	// concatenated per-shard pos||vel).
	KindReplicaRep
	// KindRecover opens a new fleet generation on the survivors after a rank
	// death (driver -> rank; Step = new generation). Ranks clear their dead
	// marks and parked phase frames, then ack with KindRecover at the same
	// Step.
	KindRecover
	// KindAbort is a rank's NACK for a phase it could not complete because a
	// peer died mid-phase (rank -> driver; Step = the phase tick being
	// served, Ints[0] = the dead rank id, or -1 if unknown).
	KindAbort

	kindEnd
)

var kindNames = [...]string{
	KindInvalid:      "invalid",
	KindHello:        "hello",
	KindConfig:       "config",
	KindRebuild:      "rebuild",
	KindCounts:       "counts",
	KindFwdPlan:      "fwd-plan",
	KindGhostPos:     "ghost-pos",
	KindRows:         "rows",
	KindOwnedPos:     "owned-pos",
	KindForces:       "forces",
	KindStatsReq:     "stats-req",
	KindStatsRep:     "stats-rep",
	KindHeartbeat:    "heartbeat",
	KindHeartbeatAck: "heartbeat-ack",
	KindDeath:        "death",
	KindShutdown:     "shutdown",
	KindReplica:      "replica",
	KindReplicaReq:   "replica-req",
	KindReplicaRep:   "replica-rep",
	KindRecover:      "recover",
	KindAbort:        "abort",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is the single message type of the rank transport. A frame owns no
// shared state: payload slices are staged (copied or serialized) by Send and
// reused across calls, so the steady-state exchange allocates nothing once
// capacities have grown to the high-water mark.
//
// Step tags the phase the frame belongs to (MD step counter for per-step
// payloads, rebuild counter for plan frames); receivers use (Src, Kind,
// Step) to discard duplicates and stale frames, which is what makes the
// fault transport's duplicate delivery harmless.
type Frame struct {
	Kind    Kind
	Src     int32
	Dst     int32
	Step    uint64
	Seq     uint64 // per-link monotone sequence, stamped by Send
	Ints    []int32
	Vecs    [][3]float64
	Scalars []float64
	Bytes   []byte
}

// Reset re-tags the frame and truncates every payload, keeping capacity.
func (f *Frame) Reset(kind Kind, dst int, step uint64) {
	f.Kind = kind
	f.Dst = int32(dst)
	f.Step = step
	f.Seq = 0
	f.Ints = f.Ints[:0]
	f.Vecs = f.Vecs[:0]
	f.Scalars = f.Scalars[:0]
	f.Bytes = f.Bytes[:0]
}

// EnsureInts sizes f.Ts to n, reusing capacity, and returns the slice.
func (f *Frame) EnsureInts(n int) []int32 {
	if cap(f.Ints) < n {
		f.Ints = make([]int32, n)
	}
	f.Ints = f.Ints[:n]
	return f.Ints
}

// EnsureVecs sizes f.Vecs to n, reusing capacity, and returns the slice.
func (f *Frame) EnsureVecs(n int) [][3]float64 {
	if cap(f.Vecs) < n {
		f.Vecs = make([][3]float64, n)
	}
	f.Vecs = f.Vecs[:n]
	return f.Vecs
}

// EnsureScalars sizes f.Scalars to n, reusing capacity, and returns the slice.
func (f *Frame) EnsureScalars(n int) []float64 {
	if cap(f.Scalars) < n {
		f.Scalars = make([]float64, n)
	}
	f.Scalars = f.Scalars[:n]
	return f.Scalars
}

// EnsureBytes sizes f.Bytes to n, reusing capacity, and returns the slice.
func (f *Frame) EnsureBytes(n int) []byte {
	if cap(f.Bytes) < n {
		f.Bytes = make([]byte, n)
	}
	f.Bytes = f.Bytes[:n]
	return f.Bytes
}

// CopyFrame copies src into dst, reusing dst's payload capacity. It is the
// staging primitive of the in-process transport and of Recv.
func CopyFrame(dst, src *Frame) {
	dst.Kind = src.Kind
	dst.Src = src.Src
	dst.Dst = src.Dst
	dst.Step = src.Step
	dst.Seq = src.Seq
	copy(dst.EnsureInts(len(src.Ints)), src.Ints)
	copy(dst.EnsureVecs(len(src.Vecs)), src.Vecs)
	copy(dst.EnsureScalars(len(src.Scalars)), src.Scalars)
	copy(dst.EnsureBytes(len(src.Bytes)), src.Bytes)
}

// Wire format (little-endian):
//
//	u32  body length (everything after this word)
//	u16  magic "AF" (0x4146)
//	u8   version (2; bumped when a kind or payload changes meaning)
//	u8   kind
//	i32  src, i32 dst
//	u64  step, u64 seq
//	u32  nInts, u32 nVecs, u32 nScalars, u32 nBytes
//	...  ints (i32 each), vecs (3×f64 each), scalars (f64 each), bytes
//
// Floats travel as IEEE-754 bit patterns (math.Float64bits), so a decoded
// trajectory is bit-identical to the sender's — the property the runtime's
// cross-transport determinism tests pin down.
const (
	frameMagic   = 0x4146
	frameVersion = 2
	headerLen    = 2 + 1 + 1 + 4 + 4 + 8 + 8 + 4*4

	// DefaultMaxFrame bounds a decoded body so a corrupt or hostile length
	// prefix cannot balloon memory.
	DefaultMaxFrame = 1 << 28
)

// EncodedLen returns the body length (excluding the 4-byte length prefix).
func (f *Frame) EncodedLen() int {
	return headerLen + 4*len(f.Ints) + 24*len(f.Vecs) + 8*len(f.Scalars) + len(f.Bytes)
}

// AppendWire appends the length-prefixed wire encoding of f to buf.
func (f *Frame) AppendWire(buf []byte) []byte {
	n := f.EncodedLen()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, frameVersion, byte(f.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Src))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Dst))
	buf = binary.LittleEndian.AppendUint64(buf, f.Step)
	buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Ints)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Vecs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Scalars)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Bytes)))
	for _, v := range f.Ints {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range f.Vecs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v[0]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v[1]))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v[2]))
	}
	for _, v := range f.Scalars {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = append(buf, f.Bytes...)
	return buf
}

// DecodeBody decodes one frame body (the bytes after the length prefix)
// into f, reusing f's payload capacity.
func (f *Frame) DecodeBody(b []byte) error {
	if len(b) < headerLen {
		return fmt.Errorf("transport: short frame body (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint16(b[0:2]) != frameMagic {
		return fmt.Errorf("transport: bad frame magic %#x", binary.LittleEndian.Uint16(b[0:2]))
	}
	if b[2] != frameVersion {
		return fmt.Errorf("transport: unsupported frame version %d", b[2])
	}
	kind := Kind(b[3])
	if kind == KindInvalid || kind >= kindEnd {
		return fmt.Errorf("transport: unknown frame kind %d", b[3])
	}
	nInts := int(binary.LittleEndian.Uint32(b[28:32]))
	nVecs := int(binary.LittleEndian.Uint32(b[32:36]))
	nScalars := int(binary.LittleEndian.Uint32(b[36:40]))
	nBytes := int(binary.LittleEndian.Uint32(b[40:44]))
	want := headerLen + 4*nInts + 24*nVecs + 8*nScalars + nBytes
	if nInts < 0 || nVecs < 0 || nScalars < 0 || nBytes < 0 || want != len(b) {
		return fmt.Errorf("transport: frame body length %d does not match payload counts", len(b))
	}
	f.Kind = kind
	f.Src = int32(binary.LittleEndian.Uint32(b[4:8]))
	f.Dst = int32(binary.LittleEndian.Uint32(b[8:12]))
	f.Step = binary.LittleEndian.Uint64(b[12:20])
	f.Seq = binary.LittleEndian.Uint64(b[20:28])
	p := headerLen
	ints := f.EnsureInts(nInts)
	for i := range ints {
		ints[i] = int32(binary.LittleEndian.Uint32(b[p : p+4]))
		p += 4
	}
	vecs := f.EnsureVecs(nVecs)
	for i := range vecs {
		vecs[i][0] = math.Float64frombits(binary.LittleEndian.Uint64(b[p : p+8]))
		vecs[i][1] = math.Float64frombits(binary.LittleEndian.Uint64(b[p+8 : p+16]))
		vecs[i][2] = math.Float64frombits(binary.LittleEndian.Uint64(b[p+16 : p+24]))
		p += 24
	}
	scalars := f.EnsureScalars(nScalars)
	for i := range scalars {
		scalars[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[p : p+8]))
		p += 8
	}
	copy(f.EnsureBytes(nBytes), b[p:])
	return nil
}

// ReadWire reads one length-prefixed frame from r into f, growing *scratch
// as needed. maxLen bounds the accepted body length (0 means
// DefaultMaxFrame).
func ReadWire(r io.Reader, f *Frame, scratch *[]byte, maxLen int) error {
	if maxLen <= 0 {
		maxLen = DefaultMaxFrame
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n < headerLen || n > maxLen {
		return fmt.Errorf("transport: frame length %d out of range [%d, %d]", n, headerLen, maxLen)
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return f.DecodeBody(body)
}
