package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Node is one vertex of a logical span DAG: identity and parentage only,
// no times, no worker attribution. Two runs of the same campaign — local,
// one worker, or a chaotic fleet — must produce equal node sets over their
// final (winning-attempt) spans.
type Node struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Key    string `json:"key"`
}

// CanonicalDAG predicts the logical span DAG of a campaign that completes
// every cell on its first attempt: per cell, the root span, one queue and
// one lease for attempt 1, the execute and report children, and the
// journal checkpoint. This is the "local run" reference the determinism
// golden test compares fleet runs against.
func CanonicalDAG(campaign string, keys []string) []Node {
	var nodes []Node
	for _, key := range keys {
		tr := TraceID(campaign, key)
		root := SpanID(tr, KindCell, 0)
		lease := SpanID(tr, KindLease, 1)
		nodes = append(nodes,
			Node{ID: root, Kind: KindCell, Key: key},
			Node{ID: SpanID(tr, KindQueue, 1), Parent: root, Kind: KindQueue, Key: key},
			Node{ID: lease, Parent: root, Kind: KindLease, Key: key},
			Node{ID: SpanID(tr, KindExecute, 1), Parent: lease, Kind: KindExecute, Key: key},
			Node{ID: SpanID(tr, KindReport, 1), Parent: lease, Kind: KindReport, Key: key},
			Node{ID: SpanID(tr, KindJournal, 0), Parent: root, Kind: KindJournal, Key: key},
		)
	}
	sortNodes(nodes)
	return nodes
}

// LogicalDAG projects recorded spans onto their logical DAG, keeping only
// Final spans (the winning attempt's path) so requeues and lost leases —
// which legitimately vary run to run — drop out. With renumber set, the
// winning attempt is renumbered to 1 so a cell that succeeded on attempt 3
// after two worker deaths still matches the canonical first-attempt DAG
// (the *IDs* of churned attempts differ, but the logical shape does not).
func LogicalDAG(spans []Span, renumber bool) []Node {
	var nodes []Node
	for i := range spans {
		s := &spans[i]
		if !s.Final {
			continue
		}
		id, parent := s.ID, s.Parent
		if renumber && s.Attempt > 1 {
			tr := s.Trace
			root := SpanID(tr, KindCell, 0)
			switch s.Kind {
			case KindQueue:
				id, parent = SpanID(tr, KindQueue, 1), root
			case KindLease:
				id, parent = SpanID(tr, KindLease, 1), root
			case KindExecute:
				id, parent = SpanID(tr, KindExecute, 1), SpanID(tr, KindLease, 1)
			case KindReport:
				id, parent = SpanID(tr, KindReport, 1), SpanID(tr, KindLease, 1)
			}
		}
		nodes = append(nodes, Node{ID: id, Parent: parent, Kind: s.Kind, Key: s.Key})
	}
	sortNodes(nodes)
	return nodes
}

func sortNodes(nodes []Node) {
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Key != nodes[j].Key {
			return nodes[i].Key < nodes[j].Key
		}
		if ka, kb := kindOrder[nodes[i].Kind], kindOrder[nodes[j].Kind]; ka != kb {
			return ka < kb
		}
		return nodes[i].ID < nodes[j].ID
	})
}

// DiffDAG returns a human-readable description of the first differences
// between two logical DAGs ("" when equal). Used by the determinism golden
// tests to print actionable failures.
func DiffDAG(want, got []Node) string {
	index := func(ns []Node) map[string]Node {
		m := make(map[string]Node, len(ns))
		for _, n := range ns {
			m[n.ID] = n
		}
		return m
	}
	wi, gi := index(want), index(got)
	var b strings.Builder
	for _, n := range want {
		g, ok := gi[n.ID]
		if !ok {
			fmt.Fprintf(&b, "missing %s span %s for %q\n", n.Kind, n.ID, n.Key)
			continue
		}
		if g.Parent != n.Parent || g.Kind != n.Kind || g.Key != n.Key {
			fmt.Fprintf(&b, "span %s: want %+v, got %+v\n", n.ID, n, g)
		}
	}
	for _, n := range got {
		if _, ok := wi[n.ID]; !ok {
			fmt.Fprintf(&b, "unexpected %s span %s for %q\n", n.Kind, n.ID, n.Key)
		}
	}
	if b.Len() == 0 && len(want) != len(got) {
		fmt.Fprintf(&b, "node count: want %d, got %d\n", len(want), len(got))
	}
	return b.String()
}
