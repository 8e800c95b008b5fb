package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/store"
)

// Checkpoint-codec coverage (persist.go): state goes out through a WAL
// checkpoint (Checkpoint, then a kill with no shutdown step) and comes
// back through store.Open + Recover, the server's only restore path.

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Populate a service: two servables, one with two versions and
	// components.
	ms, kill, _ := openRecovered(t, dir, 0)
	cifar, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ms.Publish(context.Background(), core.Anonymous, cifar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	cifar2, _ := servable.CIFAR10Package(2)
	if _, err := ms.Publish(context.Background(), core.Anonymous, cifar2); err != nil { // version 2
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := ms.StateFingerprint()
	kill()

	// A fresh service restores everything from the checkpoint alone.
	ms2, _, info := openRecovered(t, dir, 0)
	if !info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("want a checkpoint-only restore, got %+v", info)
	}
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("restored state differs\n--- want\n%s--- got\n%s", want, got)
	}
	doc, err := ms2.Get(core.Anonymous, id1)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 2 {
		t.Fatalf("latest version lost: %d", doc.Version)
	}
	versions, err := ms2.Versions(core.Anonymous, id1)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 {
		t.Fatalf("version history lost: %d", len(versions))
	}
	// Search index rebuilt.
	res, _ := ms2.Search(context.Background(), core.Anonymous, search.Query{Must: []search.Clause{{FreeText: "cifar convolutional"}}})
	if res.Total != 1 {
		t.Fatalf("index not rebuilt: %d hits", res.Total)
	}
}

// TestSnapshotOnlyDirectoryUpgrades pins the upgrade path from the
// retired -snapshot mode: its directories hold repository.gob and no
// wal.log, and must recover under -data-dir with identical state.
func TestSnapshotOnlyDirectoryUpgrades(t *testing.T) {
	dir := t.TempDir()
	ms, kill, _ := openRecovered(t, dir, 0)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{Enabled: true, MinReplicas: 1, MaxReplicas: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := ms.StateFingerprint()
	kill()
	if err := os.Remove(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}

	ms2, _, info := openRecovered(t, dir, 0)
	if !info.CheckpointLoaded {
		t.Fatal("repository.gob not loaded as the checkpoint")
	}
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("snapshot-only directory recovered different state\n--- want\n%s--- got\n%s", want, got)
	}
}

func TestSnapshotServesAfterRestore(t *testing.T) {
	dir := t.TempDir()
	// Checkpoint from one deployment...
	ms, kill, _ := openRecovered(t, dir, 0)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	kill()

	// ...recover into a full testbed and serve the restored servable.
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// The package (components included) survived, so deploy works.
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	res, err := tb.MS.Run(context.Background(), core.Anonymous, id, "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Output.(map[string]any); len(m) != 2 {
		t.Fatalf("restored servable broken: %v", m)
	}
}

// TestRestoredGhostPlacementDoesNotBlackHole pins the routing half of
// the stale-placement fix: a restored placement naming a TM that no
// longer exists must not route requests into the ghost's queue (they
// would hang until the full task timeout). Routing falls back to the
// registered TMs, which answer fast — here with task_failed, because
// the fresh site never deployed the servable.
func TestRestoredGhostPlacementDoesNotBlackHole(t *testing.T) {
	dir := t.TempDir()
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	utilID, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, utilID, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tb.Close() // "cooley-tm-1" is now a ghost

	ms, _, _ := openRecovered(t, dir, 0)
	// Placements are restored verbatim: at boot no TM has registered
	// yet, so dropping unknown-TM placements here would drop every
	// placement on every restart. Routing (pickTM) is what ignores
	// placements naming unregistered TMs.
	if got := ms.Placements()[utilID]; len(got) != 1 {
		t.Fatalf("restored placement lost: %v", got)
	}
	newSite(t, ms, "fresh-tm")
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The placement names cooley-tm-1 (unregistered); the run must be
	// routed to fresh-tm and fail fast with task_failed — NOT sit out
	// the deadline in a queue nobody consumes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err = ms.Run(ctx, core.Anonymous, utilID, "NaCl", core.RunOptions{})
	if !errors.Is(err, core.ErrTaskFailed) {
		t.Fatalf("want fast task_failed from the live TM, got %v after %v", err, time.Since(start))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("run took %v — routed into the ghost queue", time.Since(start))
	}
}

// TestSaveSnapshotConcurrentMetadataUpdates races checkpoints against
// UpdateMetadata; under -race this pins the deep-copy-under-lock fix
// (the encoder must never serialize a document being mutated).
func TestSaveSnapshotConcurrentMetadataUpdates(t *testing.T) {
	dir := t.TempDir()
	ms, kill, _ := openRecovered(t, dir, 0)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			err := ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) {
				p.Description = fmt.Sprintf("rev %d", i)
				p.VisibleTo = []string{"public", fmt.Sprintf("group-%d", i)}
			})
			if err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := ms.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	<-done
	want := ms.StateFingerprint()
	kill()
	// The last checkpoint plus its tail must still round-trip.
	ms2, _, _ := openRecovered(t, dir, 0)
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("recovered state differs\n--- want\n%s--- got\n%s", want, got)
	}
	if _, err := ms2.Get(core.Anonymous, id); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSnapshotErrors(t *testing.T) {
	// An empty directory is a fresh store, not an error.
	_, _, info := openRecovered(t, t.TempDir(), 0)
	if info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("empty directory recovered something: %+v", info)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "repository.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := store.Open(store.Options{Dir: dir, Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ms := core.New(core.Config{Registry: container.NewRegistry(), Store: w})
	defer ms.Close()
	if _, err := ms.Recover(); err == nil {
		t.Fatal("corrupt checkpoint should error")
	}
}

func TestSnapshotAtomicNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	ms, _, _ := openRecovered(t, dir, 0)
	ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()) //nolint:errcheck
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	if strings.Join(names, ",") != "repository.gob,wal.log" {
		t.Fatalf("want exactly repository.gob and wal.log, got %v", names)
	}
}
