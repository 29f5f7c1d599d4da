package main

import (
	"math"
	"math/rand"
)

// Every generator here is a pure function of its arguments: the same seed
// over the same corpus yields the same traffic, which is what lets two runs
// (or two commits) be compared request for request. Each takes its own salt
// so that changing one phase's length never shifts another phase's inputs.

func rng(seed int64, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(salt*0x9e3779b97f4a7c15)))
}

// cacheQuantum is the result cache's key resolution (2^-16, see
// internal/server's searchKey). Two queries closer than this in every
// coordinate share a cache entry, so "distinct" below means distinct after
// quantisation.
const cacheQuantum = 1.0 / (1 << 16)

// zipfRanks draws n ranks in [0, distinct) from Zipf(s): rank 0 is the most
// popular query. It is the repeated-key traffic of serve-hot.
func zipfRanks(seed int64, n, distinct int, s float64) []int {
	z := rand.NewZipf(rng(seed, 1), s, 1, uint64(distinct-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// dimStd returns the per-coordinate standard deviation of keys, the scale
// query jitter is expressed in.
func dimStd(keys [][]float64) []float64 {
	dim := len(keys[0])
	mean := make([]float64, dim)
	for _, k := range keys {
		for d, v := range k {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(keys))
	}
	std := make([]float64, dim)
	for _, k := range keys {
		for d, v := range k {
			std[d] += (v - mean[d]) * (v - mean[d])
		}
	}
	for d := range std {
		std[d] = math.Sqrt(std[d] / float64(len(keys)))
	}
	return std
}

// distinctQueries returns n index-space queries, each a randomly chosen
// key displaced by Gaussian jitter of rel standard deviations per
// coordinate. No two returned queries share a cache key, so a server
// answering them in any order never hits its result cache. salt separates
// the streams of different phases.
func distinctQueries(seed int64, salt uint64, keys [][]float64, n int, rel float64) [][]float64 {
	r := rng(seed, salt)
	std := dimStd(keys)
	dim := len(std)
	seen := make(map[[8]int64]struct{}, n)
	out := make([][]float64, 0, n)
	flat := make([]float64, n*dim)
	for len(out) < n {
		base := keys[r.Intn(len(keys))]
		q := flat[len(out)*dim : (len(out)+1)*dim : (len(out)+1)*dim]
		var ck [8]int64
		for d := range q {
			q[d] = base[d] + rel*std[d]*r.NormFloat64()
			if d < len(ck) {
				ck[d] = int64(math.Round(q[d] / cacheQuantum))
			}
		}
		if _, dup := seen[ck]; dup {
			continue
		}
		seen[ck] = struct{}{}
		out = append(out, q)
	}
	return out
}

// distinctFeatures returns n full-dimensional refine queries: a randomly
// chosen blob's histogram with every bin scaled by (1 + rel·N(0,1)),
// clipped at zero and renormalised to the simplex the corpus lives on.
func distinctFeatures(seed int64, salt uint64, feats [][]float64, n int, rel float64) [][]float64 {
	r := rng(seed, salt)
	out := make([][]float64, n)
	for i := range out {
		base := feats[r.Intn(len(feats))]
		q := make([]float64, len(base))
		var sum float64
		for d, v := range base {
			q[d] = math.Max(0, v*(1+rel*r.NormFloat64()))
			sum += q[d]
		}
		if sum > 0 {
			for d := range q {
				q[d] /= sum
			}
		}
		out[i] = q
	}
	return out
}

// writeOp is one generated mutation.
type writeOp struct {
	Delete bool
	Key    []float64
	RID    int64
}

// ridBase keeps generated insert RIDs clear of the preloaded corpus, whose
// RIDs are blob numbers.
const ridBase = int64(1) << 32

// writeStream returns n mutations for one writer: inserts of fresh points
// (an existing key plus jitter, RIDs ridBase+ridOffset+i) with a deleteShare
// of operations deleting an earlier insert of the same stream, each victim
// at most once. A single connection issues the stream in order, so a
// delete's victim has always been acknowledged before the delete is sent.
func writeStream(seed int64, salt uint64, keys [][]float64, n int, deleteShare float64, ridOffset int64) []writeOp {
	r := rng(seed, salt)
	std := dimStd(keys)
	out := make([]writeOp, 0, n)
	var live []int // indexes into out of inserts not yet deleted
	for i := 0; len(out) < n; i++ {
		if len(live) > 0 && r.Float64() < deleteShare {
			j := r.Intn(len(live))
			victim := out[live[j]]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, writeOp{Delete: true, Key: victim.Key, RID: victim.RID})
			continue
		}
		base := keys[r.Intn(len(keys))]
		key := make([]float64, len(base))
		for d := range key {
			key[d] = base[d] + 0.05*std[d]*r.NormFloat64()
		}
		live = append(live, len(out))
		out = append(out, writeOp{Key: key, RID: ridBase + ridOffset + int64(i)})
	}
	return out
}
