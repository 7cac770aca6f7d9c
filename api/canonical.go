package api

import (
	"strconv"
	"strings"
)

// Canonical returns the canonical encoding of a normalized request: a
// deterministic string covering exactly the fields the answer depends on
// — version, k, algorithm, access, transform, weights, epsilon, the
// period/cap knobs, the query vector bit-exactly, and the relation list.
// The transport, delivery and engine-tuning fields that never change the
// answer (BufferPolicy, Overflow, TimeoutMillis, NoCache, Trace,
// Partial) are excluded, so requests differing only in them share one
// encoding: servers ignore BufferPolicy, and a degraded answer is never
// cached, so both Partial settings can share an entry.
//
// Because Normalize folds aliases and fills defaults first, semantically
// equal requests encode identically: this string is the service cache
// key (suffixed with catalog generations) and the coalescing identity of
// concurrent in-flight queries, and every future transport keys on it
// rather than inventing its own.
//
// Calling Canonical on a request that has not passed Normalize produces
// an encoding that may not match its normalized twin; callers must
// normalize first.
func (r *Request) Canonical() string {
	var b strings.Builder
	b.Grow(96 + 24*len(r.Query) + 16*len(r.Relations))
	b.WriteString(r.Version)
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(r.K))
	b.WriteString("|a=")
	b.WriteString(r.Algorithm)
	b.WriteString("|x=")
	b.WriteString(r.Access)
	b.WriteString("|t=")
	b.WriteString(r.Transform)
	b.WriteString("|w=")
	if w := r.Weights; w != nil {
		b.WriteString(strconv.FormatFloat(w.Ws, 'b', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(w.Wq, 'b', -1, 64))
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(w.Wmu, 'b', -1, 64))
	}
	b.WriteString("|e=")
	b.WriteString(strconv.FormatFloat(r.Epsilon, 'b', -1, 64))
	b.WriteString("|msd=")
	b.WriteString(strconv.Itoa(r.MaxSumDepths))
	b.WriteString("|mc=")
	b.WriteString(strconv.FormatInt(r.MaxCombinations, 10))
	b.WriteString("|q=")
	for _, v := range r.Query {
		b.WriteString(strconv.FormatFloat(v, 'b', -1, 64))
		b.WriteByte(',')
	}
	b.WriteString("|r=")
	for _, name := range r.Relations {
		// Length-prefix the name: it is caller-chosen and may contain any
		// delimiter, so bare concatenation could collide across distinct
		// relation lists.
		b.WriteString(strconv.Itoa(len(name)))
		b.WriteByte(':')
		b.WriteString(name)
		b.WriteByte(',')
	}
	return b.String()
}
