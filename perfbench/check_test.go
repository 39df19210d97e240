package main

import (
	"testing"

	"memfss/internal/core"
	"memfss/internal/hrw"
)

func TestCheckBytesRejectsFlippedByte(t *testing.T) {
	p := newPool(7)
	want := p.content(3, 4096)
	got := append([]byte(nil), want...)
	if err := checkBytes("f", got, want); err != nil {
		t.Fatalf("clean copy rejected: %v", err)
	}
	got[1234] ^= 0x01
	if err := checkBytes("f", got, want); err == nil {
		t.Fatal("flipped byte accepted")
	}
	if err := checkBytes("f", got[:100], want); err == nil {
		t.Fatal("short read accepted")
	}
}

func TestPoolRegeneratesFromSeed(t *testing.T) {
	a, b := newPool(11), newPool(11)
	if err := checkBytes("f", a.content(5, 1<<20), b.content(5, 1<<20)); err != nil {
		t.Fatalf("same seed, different content: %v", err)
	}
	if checkBytes("f", a.content(5, 1<<20), newPool(12).content(5, 1<<20)) == nil {
		t.Fatal("different seeds gave the same content")
	}
}

func TestCheckListingRejectsMissingAndExtraEntries(t *testing.T) {
	want := []listEntry{{Name: "a", Size: 10}, {Name: "b", Size: 20}, {Name: "d", Dir: true}}
	good := []listEntry{{Name: "d", Dir: true}, {Name: "a", Size: 10}, {Name: "b", Size: 20}}
	if err := checkListing("/x", want, good); err != nil {
		t.Fatalf("clean listing rejected: %v", err)
	}
	bad := map[string][]listEntry{
		"missing":   {{Name: "a", Size: 10}, {Name: "d", Dir: true}},
		"extra":     append(append([]listEntry(nil), good...), listEntry{Name: "c", Size: 1}),
		"size":      {{Name: "a", Size: 11}, {Name: "b", Size: 20}, {Name: "d", Dir: true}},
		"dir flag":  {{Name: "a", Size: 10}, {Name: "b", Size: 20}, {Name: "d"}},
		"duplicate": {{Name: "a", Size: 10}, {Name: "a", Size: 10}, {Name: "d", Dir: true}},
	}
	for name, got := range bad {
		if err := checkListing("/x", want, got); err == nil {
			t.Errorf("%s: corrupted listing accepted", name)
		}
	}
}

func TestCheckEvacuatedRejectsLeftoverKey(t *testing.T) {
	if err := checkEvacuated("victim-1", 0, false, 0); err != nil {
		t.Fatalf("clean evacuation rejected: %v", err)
	}
	if checkEvacuated("victim-1", 1, false, 0) == nil {
		t.Fatal("key left on the victim accepted")
	}
	if checkEvacuated("victim-1", 0, true, 0) == nil {
		t.Fatal("forced release accepted")
	}
	if checkEvacuated("victim-1", 0, false, 2) == nil {
		t.Fatal("keys at risk accepted")
	}
}

func TestCheckScrubKeysRejectsDifferentKeySet(t *testing.T) {
	before := []string{"data:1#0", "data:1#1", "data:2#0/s3"}
	if err := checkScrubKeys("v", before, []string{"data:2#0/s3", "data:1#1", "data:1#0"}, nil); err != nil {
		t.Fatalf("exact restore rejected: %v", err)
	}
	if checkScrubKeys("v", before, before[:2], nil) == nil {
		t.Fatal("missing key accepted")
	}
	if checkScrubKeys("v", before, append(before[:3:3], "data:9#0"), nil) == nil {
		t.Fatal("extra key accepted")
	}
	if checkScrubKeys("v", before, before, []string{"/f#0: no source"}) == nil {
		t.Fatal("unrepairable unit accepted")
	}
}

func TestCheckFsckRejectsDamage(t *testing.T) {
	if err := checkFsck(nil, 0); err != nil {
		t.Fatalf("clean fsck rejected: %v", err)
	}
	if checkFsck([]string{"/a"}, 0) == nil || checkFsck(nil, 1) == nil {
		t.Fatal("damage accepted")
	}
}

func TestSpaceAmpBounds(t *testing.T) {
	rep := layoutFacts{copies: 2, userBytes: 100 << 20, stripes: 100, entries: 50}
	lo, hi := spaceAmpBounds(rep)
	if lo != 2 || hi <= 2 || hi > 2.01 {
		t.Fatalf("replicated bounds [%v, %v]", lo, hi)
	}
	if err := checkSpaceAmp(2.001, lo, hi); err != nil {
		t.Fatalf("in-bound amp rejected: %v", err)
	}
	// One replica missing, or a stray extra copy of everything.
	for _, amp := range []float64{1.6, 2.5} {
		if checkSpaceAmp(amp, lo, hi) == nil {
			t.Errorf("amp %v accepted within [%v, %v]", amp, lo, hi)
		}
	}
	ec := layoutFacts{k: 4, m: 2, userBytes: 64 << 20, stripes: 64, entries: 20, shardHeader: 18}
	lo, hi = spaceAmpBounds(ec)
	if lo != 1.5 || hi <= 1.5 || hi > 1.51 {
		t.Fatalf("erasure bounds [%v, %v]", lo, hi)
	}
	if checkSpaceAmp(1.75, lo, hi) == nil {
		t.Fatal("amp of RS(4,3) accepted under RS(4,2)")
	}
}

func TestCheckOwnShare(t *testing.T) {
	if err := checkOwnShare(250, 1000, 0.25); err != nil {
		t.Fatalf("exact share rejected: %v", err)
	}
	if checkOwnShare(400, 1000, 0.25) == nil {
		t.Fatal("share 0.40 accepted for α=0.25 over 1000 stripes")
	}
	if checkOwnShare(0, 0, 0.25) == nil {
		t.Fatal("empty census accepted")
	}
}

func TestStripeOf(t *testing.T) {
	for key, want := range map[string]string{"data:7#3": "7#3", "data:7#3/s5": "7#3"} {
		if got, ok := stripeOf(key); !ok || got != want {
			t.Errorf("stripeOf(%q) = %q, %v", key, got, ok)
		}
	}
	if _, ok := stripeOf("meta:/a"); ok {
		t.Error("metadata key taken for data")
	}
}

func TestTailLevel(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for n, want := range map[int]float64{39: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if level, _ := tail(mk(n)); level != want {
			t.Errorf("n=%d: level %v, want %v", n, level, want)
		}
	}
	if got := unionLen([]interval{{0, 10}, {5, 15}, {20, 30}}); got != 25 {
		t.Errorf("unionLen = %v, want 25", got)
	}
}

func TestCheckShortfallRejectsUnpredictedLoss(t *testing.T) {
	allowed := map[string]bool{"1#0": true, "1#1": true}
	if err := checkShortfall(map[string]int{"1#0": 1}, allowed); err != nil {
		t.Fatalf("predicted collapse rejected: %v", err)
	}
	if checkShortfall(map[string]int{"1#0": 1, "2#0": 1}, allowed) == nil {
		t.Fatal("a copy lost outside the predicted collapse accepted")
	}
	if checkShortfall(map[string]int{"1#1": 2}, allowed) == nil {
		t.Fatal("two copies lost from one stripe accepted")
	}
}

func TestPredictCollapse(t *testing.T) {
	classes := []core.ClassSpec{{Name: "own", Nodes: []core.NodeSpec{{ID: "own-0"}, {ID: "own-1"}, {ID: "own-2"}}}}
	pl, err := hrw.NewPlacer(hrw.Class{Name: "own", Nodes: []string{"own-0", "own-1", "own-2"}})
	if err != nil {
		t.Fatal(err)
	}
	order := pl.ProbeOrder("5#0")
	holders := map[string][]string{
		// Placed copies: the victim's copy moves onto the other one.
		"5#0": {order[0], order[1]},
		// The victim holds no copy.
		"5#1": {"own-0"},
	}
	got, err := predictCollapse(classes, order[0], holders)
	if err != nil {
		t.Fatal(err)
	}
	if !got["5#0"] || len(got) != 1 {
		t.Fatalf("predicted %v, want only 5#0", got)
	}
	// A copy whose first other probe node holds nothing moves intact.
	got, err = predictCollapse(classes, order[0], map[string][]string{"5#0": {order[0], order[2]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("predicted %v, want none", got)
	}
}
