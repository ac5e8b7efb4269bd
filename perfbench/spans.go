package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spans records the traced run's spans: one around each of the
// benchmark's own calls into a layer, named "<layer>.<call>", with the
// span that caused it. They stay in memory until the run ends. A nil
// *spans records nothing, so untraced code paths pay one nil check.
type spans struct {
	t0   time.Time
	mu   sync.Mutex // the web workload's connections record concurrently
	list []span
}

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the list; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Parent: parent, Start: int64(time.Since(s.t0)), End: -1})
	return len(s.list) - 1
}

// end closes span id and returns its duration.
func (s *spans) end(id int) time.Duration {
	if s == nil || id < 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.list[id]
	sp.End = int64(time.Since(s.t0))
	return time.Duration(sp.End - sp.Start)
}

// summary prints, per span name, the count, the total time and the self
// time: the span's duration minus the part its child spans cover (the
// benchmark's spans nest without overlapping siblings).
func (s *spans) summary(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	child := make([]time.Duration, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += time.Duration(sp.End - sp.Start)
		}
	}
	by := make(map[string]*agg)
	var names []string
	for i, sp := range s.list {
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
			names = append(names, sp.Name)
		}
		d := time.Duration(sp.End - sp.Start)
		a.n++
		a.total += d
		a.self += d - child[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-28s %8s %14s %14s\n", "span", "count", "total", "self")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-28s %8d %14v %14v\n", n, a.n, a.total.Round(time.Microsecond), a.self.Round(time.Microsecond))
	}
}

// write stores the spans as JSON under dir.
func (s *spans) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
