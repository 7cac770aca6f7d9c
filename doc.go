// Package proxrank implements proximity rank join (Martinenghi &
// Tagliasacchi, PVLDB 3(1), 2010): given n relations whose tuples carry a
// score and a feature vector, and a query vector q, it returns the top-K
// combinations of one tuple per relation, ranked by an aggregate of the
// tuple scores, their distances from q, and their distances from the
// combination's centroid — "good results, near the query, near each
// other".
//
// Relations are consumed through sorted sequential access only (no random
// access, no index assumption), either by increasing distance from q or by
// decreasing score. The engine is the paper's ProxRJ template with four
// instantiations:
//
//   - CBRR — corner bound + round-robin pulling (the classic HRJN)
//   - CBPA — corner bound + adaptive pulling (HRJN*)
//   - TBRR — tight bound + round-robin (instance-optimal)
//   - TBPA — tight bound + adaptive pulling (instance-optimal, never
//     deeper than TBRR on any input)
//
// The tight bound solves, for every partial combination, a small convex
// quadratic program that locates the best possible unseen completion; it
// is tight in the sense of Schnaitter & Polyzotis, which makes the
// stopping condition instance-optimal — no correct deterministic
// algorithm can read asymptotically fewer tuples on any instance.
//
// # Quick start
//
//	hotels, _ := proxrank.NewRelation("hotels", 1.0, hotelTuples)
//	food, _ := proxrank.NewRelation("restaurants", 1.0, foodTuples)
//	res, err := proxrank.TopK(query, []*proxrank.Relation{hotels, food}, proxrank.Options{K: 5})
//	for _, c := range res.Combinations {
//	    fmt.Println(c.Score, c.Tuples[0].ID, c.Tuples[1].ID)
//	}
//
// Options.Algorithm defaults to TBPA, the paper's best algorithm. Use
// Options.Access to switch between distance-based (default) and
// score-based access; Options.Weights to tune the score/query-proximity/
// mutual-proximity trade-off of paper eq. (2).
//
// # Incremental retrieval
//
// The engine is inherently incremental, and the Query session is the
// first-class surface for ranked enumeration: NewQuery builds a session
// from a transport-neutral api.Request, Next delivers results as the
// bound certifies them (k need not be known up front), and enumeration
// can continue past the initial K without restarting the run — until the
// consumer calls Close, which is where a session's sources and spill
// files are let go. All batch entry points are a session drained to K
// and closed, so both consumption models share one engine invocation
// path and identical costs.
//
// The repository also ships the paper's full experimental study (see
// cmd/proxbench and EXPERIMENTS.md) and a concurrent query-serving layer
// over this library (see the api and service packages and cmd/proxserve).
package proxrank
