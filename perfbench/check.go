package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
)

// The checkers below judge the program's outputs against the benchmark's
// own model (the seeded content pool, the namespace model, key listings
// taken with a direct store client) or against properties the method must
// have. None of them calls into the file system.

// checkBytes reports the first byte where got differs from want.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: read %d bytes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: byte %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
	return nil
}

// listEntry is one directory entry, as the model expects it or as a
// listing returned it. Size is ignored for directories.
type listEntry struct {
	Name string
	Size int64
	Dir  bool
}

// checkListing compares a directory listing with the model's entries.
func checkListing(dir string, want, got []listEntry) error {
	w := make(map[string]listEntry, len(want))
	for _, e := range want {
		w[e.Name] = e
	}
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		e, ok := w[g.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s: unexpected entry %q", dir, g.Name)
		case seen[g.Name]:
			return fmt.Errorf("%s: entry %q listed twice", dir, g.Name)
		case e.Dir != g.Dir:
			return fmt.Errorf("%s/%s: directory flag %v, want %v", dir, g.Name, g.Dir, e.Dir)
		case !e.Dir && e.Size != g.Size:
			return fmt.Errorf("%s/%s: size %d, want %d", dir, g.Name, g.Size, e.Size)
		}
		seen[g.Name] = true
	}
	if len(seen) != len(w) {
		var missing []string
		for name := range w {
			if !seen[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("%s: missing entries %v", dir, missing)
	}
	return nil
}

// checkEvacuated requires that a revoked victim's store holds no keys and
// that the evacuation confirmed a copy of every key before releasing it.
func checkEvacuated(node string, keysLeft int, forced bool, atRisk int) error {
	switch {
	case keysLeft != 0:
		return fmt.Errorf("evacuate %s: store still holds %d keys", node, keysLeft)
	case forced:
		return fmt.Errorf("evacuate %s: released by deadline, not drained", node)
	case atRisk != 0:
		return fmt.Errorf("evacuate %s: %d keys flushed before a copy was confirmed", node, atRisk)
	}
	return nil
}

// checkScrubKeys requires that scrub restored exactly the key set a wiped
// store held before the wipe, with nothing reported unrepairable.
func checkScrubKeys(node string, before, after, unrepairable []string) error {
	if len(unrepairable) > 0 {
		return fmt.Errorf("scrub %s: %d units unrepairable, first %q", node, len(unrepairable), unrepairable[0])
	}
	b := make(map[string]bool, len(before))
	for _, k := range before {
		b[k] = true
	}
	a := make(map[string]bool, len(after))
	for _, k := range after {
		if !b[k] {
			return fmt.Errorf("scrub %s: key %q was not on the store before the wipe", node, k)
		}
		a[k] = true
	}
	for _, k := range before {
		if !a[k] {
			return fmt.Errorf("scrub %s: key %q not restored", node, k)
		}
	}
	return nil
}

// checkFsck requires a clean consistency scan.
func checkFsck(damaged []string, orphans int) error {
	if len(damaged) > 0 {
		return fmt.Errorf("fsck: %d damaged files, first %s", len(damaged), damaged[0])
	}
	if orphans != 0 {
		return fmt.Errorf("fsck: %d orphan stripes", orphans)
	}
	return nil
}

// checkShortfall requires every stripe short of copies (short maps a
// stripe to the copies it lacks) to be one the revocation was predicted to
// collapse, and to lack one copy at most.
func checkShortfall(short map[string]int, allowed map[string]bool) error {
	stripes := make([]string, 0, len(short))
	for s := range short {
		stripes = append(stripes, s)
	}
	sort.Strings(stripes)
	for _, s := range stripes {
		switch {
		case !allowed[s]:
			return fmt.Errorf("stripe %s lacks %d copies and was not predicted to collapse", s, short[s])
		case short[s] > 1:
			return fmt.Errorf("stripe %s lacks %d copies, a collapse loses one", s, short[s])
		}
	}
	return nil
}

// layoutFacts are what the space-amplification bound is computed from:
// the redundancy scheme, the stored values the model's live files imply,
// and the namespace size.
type layoutFacts struct {
	copies, k, m int   // replication: copies > 0; erasure: k, m > 0
	userBytes    int64 // bytes of live files
	stripes      int64 // stripes of live files
	entries      int   // namespace entries (files and directories)
	shardHeader  int   // bytes of header per erasure shard
}

// Per-value accounting of the store: every key costs its name plus a
// fixed bookkeeping charge. The key-name bound covers "data:<id>#<idx>/sN"
// for file IDs and stripe indices up to 12 digits; the metadata bound
// covers one JSON file record with its placement snapshot, its directory
// entry and its file-ID index key.
const (
	storeEntryCharge = 64
	dataKeyNameMax   = 40
	metaPerEntryMax  = 2048
	metaFixedMax     = 4096
)

// spaceAmpBounds returns the interval the bytes stored per live user byte
// must lie in: from the scheme's ratio (R, or (k+m)/k) up to that ratio
// plus key, header, padding and metadata overhead.
func spaceAmpBounds(f layoutFacts) (lo, hi float64) {
	perStripe := int64(f.copies)
	lo = float64(f.copies)
	pad := int64(0)
	if f.copies == 0 {
		perStripe = int64(f.k + f.m)
		lo = float64(f.k+f.m) / float64(f.k)
		pad = int64(f.k+f.m) + perStripe*int64(f.shardHeader)
	}
	over := f.stripes*(perStripe*(dataKeyNameMax+storeEntryCharge)+pad) +
		int64(f.entries)*metaPerEntryMax + metaFixedMax
	return lo, lo + float64(over)/float64(f.userBytes)
}

// checkSpaceAmp requires amp to lie within [lo, hi].
func checkSpaceAmp(amp, lo, hi float64) error {
	if amp < lo || amp > hi || math.IsNaN(amp) {
		return fmt.Errorf("space_amp %.4f outside [%.4f, %.4f]", amp, lo, hi)
	}
	return nil
}

// checkOwnShare requires the own-class share of stripes to lie within four
// binomial standard deviations of the configured fraction alpha.
func checkOwnShare(own, total int, alpha float64) error {
	if total == 0 {
		return fmt.Errorf("own share: no stripes found")
	}
	share := float64(own) / float64(total)
	sigma := math.Sqrt(alpha * (1 - alpha) / float64(total))
	if math.Abs(share-alpha) > 4*sigma {
		return fmt.Errorf("own share %.3f of %d stripes is more than 4σ (%.3f) from α=%.2f", share, total, sigma, alpha)
	}
	return nil
}

// stripeOf maps a stored data key to its stripe: erasure shard keys
// ("data:<id>#<idx>/s<n>") lose their shard suffix. ok is false for keys
// that are not file data.
func stripeOf(key string) (string, bool) {
	body, ok := strings.CutPrefix(key, "data:")
	if !ok {
		return "", false
	}
	if i := strings.LastIndex(body, "/s"); i >= 0 {
		body = body[:i]
	}
	return body, true
}
