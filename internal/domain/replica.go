package domain

import (
	"sort"

	"repro/internal/transport"
)

// Peer-redundant in-memory replication: every rank streams its owned-atom
// state (positions and velocities at a replication point) to a buddy rank,
// so when a rank dies its last-replicated state can be reassembled from the
// survivors' memory without touching disk. The store keeps the two newest
// replication points per owner, which guarantees a complete older point
// survives even when a death interrupts the newest broadcast halfway.

// buddyOf returns the rank that holds rank r's replica shard: each rank
// streams its state to its successor in rank order.
func buddyOf(r, nr int) int { return (r + 1) % nr }

// replShard is one rank's owned-atom snapshot at a replication point. All
// slices are owned copies (frames are reused by the transport).
type replShard struct {
	step  uint64
	owner int32
	ids   []int32
	pos   [][3]float64
	vel   [][3]float64
}

// replStore holds the replica shards one rank (or the driver) keeps in
// memory: per owner, the two newest distinct replication points, newest
// first. put is idempotent — a duplicate (owner, step) delivery overwrites
// in place, which is what makes fault-injected duplicate replica frames
// harmless.
type replStore struct {
	byOwner map[int32][]replShard
}

func newReplStore() *replStore {
	return &replStore{byOwner: make(map[int32][]replShard)}
}

// put stores an owned copy of the shard data, keeping the two newest
// distinct steps per owner.
func (s *replStore) put(step uint64, owner int32, ids []int32, pos, vel [][3]float64) {
	have := s.byOwner[owner]
	for i := range have {
		if have[i].step == step {
			have[i] = cloneShard(step, owner, ids, pos, vel)
			return
		}
	}
	have = append(have, cloneShard(step, owner, ids, pos, vel))
	sort.Slice(have, func(i, j int) bool { return have[i].step > have[j].step })
	if len(have) > 2 {
		have = have[:2]
	}
	s.byOwner[owner] = have
}

// shards returns every stored shard (order unspecified).
func (s *replStore) shards() []replShard {
	var out []replShard
	for _, have := range s.byOwner {
		out = append(out, have...)
	}
	return out
}

func cloneShard(step uint64, owner int32, ids []int32, pos, vel [][3]float64) replShard {
	sh := replShard{
		step:  step,
		owner: owner,
		ids:   make([]int32, len(ids)),
		pos:   make([][3]float64, len(pos)),
		vel:   make([][3]float64, len(vel)),
	}
	copy(sh.ids, ids)
	copy(sh.pos, pos)
	copy(sh.vel, vel)
	return sh
}

// packReplica fills f as a KindReplica frame: Ints = global ids, Vecs =
// positions then velocities.
func packReplica(f *transport.Frame, dst int, step uint64, ids []int32, pos, vel [][3]float64) {
	f.Reset(transport.KindReplica, dst, step)
	copy(f.EnsureInts(len(ids)), ids)
	vecs := f.EnsureVecs(2 * len(ids))
	copy(vecs[:len(ids)], pos)
	copy(vecs[len(ids):], vel)
}

// unpackReplica copies a KindReplica frame into the store under the given
// owner. Returns false on a malformed payload.
func (s *replStore) unpackReplica(f *transport.Frame, owner int32) bool {
	n := len(f.Ints)
	if len(f.Vecs) != 2*n {
		return false
	}
	s.put(f.Step, owner, f.Ints, f.Vecs[:n], f.Vecs[n:])
	return true
}

// packReplicaRep packs every shard of the store into one KindReplicaRep
// frame: Ints = [nShards, then per shard owner and nIds, then all ids
// concatenated]; Scalars = per-shard steps (exact: steps are far below
// 2^53); Vecs = concatenated per-shard pos||vel.
func packReplicaRep(f *transport.Frame, dst int, tick uint64, shards []replShard) {
	f.Reset(transport.KindReplicaRep, dst, tick)
	nIds, nVecs := 0, 0
	for _, sh := range shards {
		nIds += len(sh.ids)
		nVecs += len(sh.pos) + len(sh.vel)
	}
	ints := f.EnsureInts(1 + 2*len(shards) + nIds)
	scalars := f.EnsureScalars(len(shards))
	vecs := f.EnsureVecs(nVecs)
	ints[0] = int32(len(shards))
	p, v := 1+2*len(shards), 0
	for i, sh := range shards {
		ints[1+2*i] = sh.owner
		ints[2+2*i] = int32(len(sh.ids))
		scalars[i] = float64(sh.step)
		copy(ints[p:], sh.ids)
		p += len(sh.ids)
		copy(vecs[v:], sh.pos)
		v += len(sh.pos)
		copy(vecs[v:], sh.vel)
		v += len(sh.vel)
	}
}

// unpackReplicaRep decodes a KindReplicaRep frame into owned shards.
// Returns nil, false on a malformed payload.
func unpackReplicaRep(f *transport.Frame) ([]replShard, bool) {
	if len(f.Ints) < 1 {
		return nil, false
	}
	n := int(f.Ints[0])
	if n < 0 || len(f.Ints) < 1+2*n || len(f.Scalars) != n {
		return nil, false
	}
	shards := make([]replShard, 0, n)
	p, v := 1+2*n, 0
	for i := 0; i < n; i++ {
		owner := f.Ints[1+2*i]
		nIds := int(f.Ints[2+2*i])
		if nIds < 0 || p+nIds > len(f.Ints) || v+2*nIds > len(f.Vecs) {
			return nil, false
		}
		shards = append(shards, cloneShard(
			uint64(f.Scalars[i]), owner,
			f.Ints[p:p+nIds], f.Vecs[v:v+nIds], f.Vecs[v+nIds:v+2*nIds]))
		p += nIds
		v += 2 * nIds
	}
	if p != len(f.Ints) || v != len(f.Vecs) {
		return nil, false
	}
	return shards, true
}

// assembleReplicas picks the newest replication point whose shards cover
// every atom and scatters it into pos and vel (full global arrays). Returns
// the step of the chosen point, or ok=false when no complete point exists.
func assembleReplicas(shards []replShard, pos, vel [][3]float64) (uint64, bool) {
	n := len(pos)
	bySstep := make(map[uint64][]replShard)
	for _, sh := range shards {
		bySstep[sh.step] = append(bySstep[sh.step], sh)
	}
	steps := make([]uint64, 0, len(bySstep))
	for st := range bySstep {
		steps = append(steps, st)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] > steps[j] })
	seen := make([]bool, n)
	for _, st := range steps {
		for i := range seen {
			seen[i] = false
		}
		covered := 0
		ok := true
		for _, sh := range bySstep[st] {
			for _, id := range sh.ids {
				if id < 0 || int(id) >= n {
					ok = false
					break
				}
				if !seen[id] {
					seen[id] = true
					covered++
				}
			}
			if !ok {
				break
			}
		}
		if !ok || covered != n {
			continue
		}
		// Complete point: scatter. Duplicate shards for the same owner carry
		// identical data, so overwrite order does not matter.
		for _, sh := range bySstep[st] {
			for k, id := range sh.ids {
				pos[id] = sh.pos[k]
				vel[id] = sh.vel[k]
			}
		}
		return st, true
	}
	return 0, false
}
