package service

import (
	"hash/fnv"
	"math/rand"
	"time"

	"conprobe/internal/store"
	"conprobe/internal/vtime"
)

// Selection models interest-based read results: instead of the newest
// writes in store order, a read returns "a selection of writes based on a
// criteria that depends on the expected interest of these writes for the
// user issuing the read operation" (Section V, Facebook Feed).
//
// Entries younger than FreshFor are unstable: their relative order is
// perturbed per (reader, read) and each may be dropped from the result.
// Older entries are returned in stable store order, so selection-induced
// divergence heals as content ages.
type Selection struct {
	// FreshFor is the age below which an entry's ranking is unstable.
	FreshFor time.Duration
	// Shuffle in [0,1] is the probability that each adjacent pair of
	// fresh entries is swapped during ranking.
	Shuffle float64
	// DropFresh in [0,1] is the probability that a fresh entry is
	// omitted from a read result entirely.
	DropFresh float64
	// TopK, when positive, truncates the result to the K best-ranked
	// entries.
	TopK int
}

// apply ranks entries for one read. seed namespaces the service instance;
// reader and nonce make each (reader, read) ranking distinct but
// deterministic for a fixed campaign seed. entries may be a shared store
// view: apply never modifies it, and copies it only when the ranking
// drops or reorders an entry. Otherwise it returns entries itself, or a
// prefix of it under TopK.
func (sel *Selection) apply(entries []store.Entry, clock vtime.Clock, seed int64, reader string, nonce uint64) []store.Entry {
	if sel == nil {
		return entries
	}
	rng := rand.New(rand.NewSource(selectionSeed(seed, reader, nonce)))
	cutoff := clock.Now().Add(-sel.FreshFor)

	// out aliases entries until the first drop; owned records when it
	// stopped aliasing.
	out := entries[:0:0]
	owned := false
	freshStart := -1
	for i, e := range entries {
		fresh := sel.FreshFor > 0 && !e.CreatedAt.Before(cutoff)
		if fresh && sel.DropFresh > 0 && rng.Float64() < sel.DropFresh {
			if !owned {
				out = append(make([]store.Entry, 0, len(entries)), entries[:i]...)
				owned = true
			}
			continue
		}
		if owned {
			out = append(out, e)
		} else {
			out = entries[: i+1 : i+1]
		}
		if fresh && freshStart < 0 {
			freshStart = len(out) - 1
		}
	}
	if freshStart >= 0 && sel.Shuffle > 0 {
		for i := freshStart + 1; i < len(out); i++ {
			if rng.Float64() < sel.Shuffle {
				if !owned {
					out = append(make([]store.Entry, 0, len(out)), out...)
					owned = true
				}
				out[i-1], out[i] = out[i], out[i-1]
			}
		}
	}
	if sel.TopK > 0 && len(out) > sel.TopK {
		out = out[:sel.TopK:sel.TopK]
	}
	return out
}

// selectionSeed derives a deterministic per-read seed.
func selectionSeed(seed int64, reader string, nonce uint64) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(reader))
	for i := 0; i < 8; i++ {
		buf[i] = byte(nonce >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return int64(h.Sum64())
}
