package smbm

import (
	"errors"
	"testing"
)

func TestReplicaGroupBasics(t *testing.T) {
	g := NewReplicaGroup(4, 16, 2)
	if g.NumPipelines() != 4 {
		t.Fatalf("NumPipelines = %d", g.NumPipelines())
	}
	if err := g.Add(0, 3, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if !g.Replica(p).Contains(3) {
			t.Fatalf("replica %d missing id 3", p)
		}
	}
	if !g.InSync() {
		t.Fatal("replicas out of sync after add")
	}
}

func TestReplicaGroupSynchronousUpdateAndDelete(t *testing.T) {
	g := NewReplicaGroup(2, 8, 1)
	if err := g.Add(0, 1, []int64{5}); err != nil {
		t.Fatal(err)
	}
	g.AdvanceCycle()
	if err := g.Update(1, 1, []int64{9}); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if v, _ := g.Replica(p).Value(1, 0); v != 9 {
			t.Fatalf("replica %d value = %d", p, v)
		}
	}
	g.AdvanceCycle()
	if err := g.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Replica(1).Contains(1) {
		t.Fatal("delete not applied to all replicas")
	}
	if !g.InSync() {
		t.Fatal("replicas out of sync")
	}
}

func TestReplicaGroupWriteContention(t *testing.T) {
	g := NewReplicaGroup(2, 8, 1)
	if err := g.Add(0, 1, []int64{5}); err != nil {
		t.Fatal(err)
	}
	// Same cycle, different pipeline, same entry: contention.
	err := g.Update(1, 1, []int64{7})
	if !errors.Is(err, ErrWriteContention) {
		t.Fatalf("expected contention, got %v", err)
	}
	// Same pipeline re-writing the same entry is allowed (one probe stream).
	if err := g.Update(0, 1, []int64{7}); err != nil {
		t.Fatal(err)
	}
	// Different entry, different pipeline, same cycle: fine.
	if err := g.Add(1, 2, []int64{1}); err != nil {
		t.Fatal(err)
	}
	// Next cycle clears the claim.
	g.AdvanceCycle()
	if g.Cycle() != 1 {
		t.Fatalf("Cycle = %d", g.Cycle())
	}
	if err := g.Update(1, 1, []int64{8}); err != nil {
		t.Fatal(err)
	}
	if !g.InSync() {
		t.Fatal("replicas out of sync")
	}
}

func TestReplicaGroupFailedWriteLeavesReplicasIdentical(t *testing.T) {
	g := NewReplicaGroup(3, 4, 1)
	if err := g.Delete(0, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected not-found, got %v", err)
	}
	if !g.InSync() {
		t.Fatal("failed delete desynced replicas")
	}
	for p := 0; p < 3; p++ {
		if g.Replica(p).Size() != 0 {
			t.Fatalf("replica %d not empty", p)
		}
	}
}

func TestReplicaGroupPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewReplicaGroup(0,...) should panic")
			}
		}()
		NewReplicaGroup(0, 4, 1)
	}()
	g := NewReplicaGroup(1, 4, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replica out of range should panic")
			}
		}()
		g.Replica(1)
	}()
}
