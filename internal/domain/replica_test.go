package domain

import (
	"testing"

	"repro/internal/transport"
)

func TestReplicaFrameRoundTrip(t *testing.T) {
	ids := []int32{4, 7, 1}
	pos := [][3]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	vel := [][3]float64{{-1, 0, 1}, {0.5, -0.5, 0}, {2, 2, 2}}
	var f transport.Frame
	packReplica(&f, 3, 42, ids, pos, vel)
	if f.Kind != transport.KindReplica || f.Step != 42 || int(f.Dst) != 3 {
		t.Fatalf("packed header %v step %d dst %d", f.Kind, f.Step, f.Dst)
	}
	st := newReplStore()
	if !st.unpackReplica(&f, 2) {
		t.Fatal("well-formed replica frame rejected")
	}
	sh := st.shards()
	if len(sh) != 1 || sh[0].owner != 2 || sh[0].step != 42 {
		t.Fatalf("stored shards %+v", sh)
	}
	for k := range ids {
		if sh[0].ids[k] != ids[k] || sh[0].pos[k] != pos[k] || sh[0].vel[k] != vel[k] {
			t.Fatalf("shard entry %d corrupted", k)
		}
	}
	// Malformed: vec payload not twice the id count.
	f.Vecs = f.Vecs[:len(f.Vecs)-1]
	if st.unpackReplica(&f, 2) {
		t.Fatal("malformed replica frame accepted")
	}
}

func TestReplicaRepFrameRoundTrip(t *testing.T) {
	shards := []replShard{
		cloneShard(10, 0, []int32{0, 2}, [][3]float64{{1, 1, 1}, {2, 2, 2}}, [][3]float64{{3, 3, 3}, {4, 4, 4}}),
		cloneShard(15, 1, []int32{1}, [][3]float64{{5, 5, 5}}, [][3]float64{{6, 6, 6}}),
		cloneShard(15, 0, nil, nil, nil), // empty shard survives the trip too
	}
	var f transport.Frame
	packReplicaRep(&f, 4, 99, shards)
	if f.Kind != transport.KindReplicaRep || f.Step != 99 {
		t.Fatalf("packed header %v step %d", f.Kind, f.Step)
	}
	got, ok := unpackReplicaRep(&f)
	if !ok || len(got) != len(shards) {
		t.Fatalf("unpack: ok=%v, %d shards, want %d", ok, len(got), len(shards))
	}
	for i, sh := range shards {
		g := got[i]
		if g.step != sh.step || g.owner != sh.owner || len(g.ids) != len(sh.ids) {
			t.Fatalf("shard %d header diverged: %+v vs %+v", i, g, sh)
		}
		for k := range sh.ids {
			if g.ids[k] != sh.ids[k] || g.pos[k] != sh.pos[k] || g.vel[k] != sh.vel[k] {
				t.Fatalf("shard %d entry %d corrupted", i, k)
			}
		}
	}
	// Truncated payloads must be rejected, not mis-scattered.
	bad := f
	bad.Ints = bad.Ints[:len(bad.Ints)-1]
	if _, ok := unpackReplicaRep(&bad); ok {
		t.Fatal("truncated ids accepted")
	}
	bad = f
	bad.Vecs = bad.Vecs[:len(bad.Vecs)-1]
	if _, ok := unpackReplicaRep(&bad); ok {
		t.Fatal("truncated vecs accepted")
	}
}

// TestReplStoreKeepsTwoNewestIdempotently pins the redundancy window: per
// owner the store holds the two newest distinct replication points — so a
// death mid-broadcast always leaves a complete older point — and duplicate
// (owner, step) deliveries overwrite in place rather than evicting.
func TestReplStoreKeepsTwoNewestIdempotently(t *testing.T) {
	st := newReplStore()
	put := func(step uint64, x float64) {
		st.put(step, 0, []int32{0}, [][3]float64{{x, 0, 0}}, [][3]float64{{0, x, 0}})
	}
	put(10, 1)
	put(20, 2)
	put(20, 2) // duplicate delivery
	put(15, 3) // older than both: evicted immediately
	put(30, 4) // evicts 15's survivor (10)
	sh := st.shards()
	if len(sh) != 2 {
		t.Fatalf("store holds %d shards, want 2", len(sh))
	}
	steps := map[uint64]float64{}
	for _, s := range sh {
		steps[s.step] = s.pos[0][0]
	}
	if steps[20] != 2 || steps[30] != 4 {
		t.Fatalf("kept points %v, want steps 20 and 30", steps)
	}
}

// TestAssembleReplicasPicksNewestCompletePoint: reassembly must skip a newer
// but incomplete replication point (a death interrupted its broadcast) in
// favor of the newest point whose shards cover every atom.
func TestAssembleReplicasPicksNewestCompletePoint(t *testing.T) {
	mk := func(step uint64, owner int32, ids []int32, x float64) replShard {
		pos := make([][3]float64, len(ids))
		vel := make([][3]float64, len(ids))
		for k := range ids {
			pos[k] = [3]float64{x, float64(ids[k]), 0}
			vel[k] = [3]float64{0, x, float64(ids[k])}
		}
		return cloneShard(step, owner, ids, pos, vel)
	}
	shards := []replShard{
		mk(10, 0, []int32{0, 1}, 1),
		mk(10, 1, []int32{2, 3}, 1),
		mk(20, 0, []int32{0, 1}, 2), // step 20 is missing owner 1's half
	}
	pos := make([][3]float64, 4)
	vel := make([][3]float64, 4)
	step, ok := assembleReplicas(shards, pos, vel)
	if !ok || step != 10 {
		t.Fatalf("assembled step %d (ok=%v), want complete point 10", step, ok)
	}
	for i := 0; i < 4; i++ {
		if pos[i] != [3]float64{1, float64(i), 0} || vel[i] != [3]float64{0, 1, float64(i)} {
			t.Fatalf("atom %d scattered wrong: pos %v vel %v", i, pos[i], vel[i])
		}
	}
	// No complete point at all: reassembly refuses rather than guessing.
	if _, ok := assembleReplicas(shards[2:], pos, vel); ok {
		t.Fatal("incomplete coverage assembled")
	}
	// Out-of-range ids invalidate the point.
	if _, ok := assembleReplicas([]replShard{mk(5, 0, []int32{0, 9}, 1)}, pos, vel); ok {
		t.Fatal("out-of-range id accepted")
	}
}
