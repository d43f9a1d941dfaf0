package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Summary is the machine-readable digest of one Collector, serialisable
// as JSON (see docs/OBSERVABILITY.md for the schema).
type Summary struct {
	Rounds        int   `json:"rounds"`
	Messages      int   `json:"messages"`
	Words         int   `json:"words"`
	CutWords      int   `json:"cutWords"`
	Activations   int   `json:"activations"`
	Runs          int   `json:"runs"`
	PeakLinkWords int   `json:"peakLinkWords"`
	PeakQueueLen  int   `json:"peakQueueLen"`
	WallNs        int64 `json:"wallNs,omitempty"`

	// PerTag keys are the decimal tag values (JSON object keys are strings).
	PerTag map[string]TagStat `json:"perTag,omitempty"`
	// PerLink is sorted by (from, to).
	PerLink []LinkStat    `json:"perLink,omitempty"`
	Phases  []PhaseSpan   `json:"phases,omitempty"`
	Series  []RoundSample `json:"series,omitempty"`
	Sampled []MsgEvent    `json:"sampledMessages,omitempty"`
}

// Summary snapshots the collector into its exportable digest.
func (c *Collector) Summary() *Summary {
	c.flushPending()
	s := &Summary{
		Rounds:        c.Rounds,
		Messages:      c.Messages,
		Words:         c.Words,
		CutWords:      c.CutWords,
		Activations:   c.Activations,
		Runs:          c.Runs,
		PeakLinkWords: c.PeakLinkWords,
		PeakQueueLen:  c.PeakQueueLen,
		WallNs:        c.WallNs,
		Series:        append([]RoundSample(nil), c.Series...),
		Sampled:       append([]MsgEvent(nil), c.Sampled...),
	}
	if len(c.PerTag) > 0 {
		s.PerTag = make(map[string]TagStat, len(c.PerTag))
		for tag, ts := range c.PerTag {
			s.PerTag[strconv.FormatInt(tag, 10)] = *ts
		}
	}
	if len(c.PerLink) > 0 {
		s.PerLink = make([]LinkStat, 0, len(c.PerLink))
		for _, ls := range c.PerLink {
			s.PerLink = append(s.PerLink, *ls)
		}
		sort.Slice(s.PerLink, func(i, j int) bool {
			if s.PerLink[i].From != s.PerLink[j].From {
				return s.PerLink[i].From < s.PerLink[j].From
			}
			return s.PerLink[i].To < s.PerLink[j].To
		})
	}
	for _, sp := range c.Phases {
		s.Phases = append(s.Phases, *sp)
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSeriesCSV writes the per-round series as CSV with a header row.
func (s *Summary) WriteSeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "round,span,messages,words,cutWords,active,maxLinkWords,maxQueueLen,wallNs"); err != nil {
		return err
	}
	for _, r := range s.Series {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			r.Round, r.Span, r.Messages, r.Words, r.CutWords, r.Active,
			r.MaxLinkWords, r.MaxQueueLen, r.WallNs); err != nil {
			return err
		}
	}
	return nil
}

// WritePhaseTable prints the phase spans as an aligned text table. A wall
// column (milliseconds) is added only when some span carries wall time
// (Collector.Wall), so tables without it are unchanged.
func WritePhaseTable(w io.Writer, phases []PhaseSpan) {
	if len(phases) == 0 {
		fmt.Fprintln(w, "no phase spans recorded")
		return
	}
	wall := false
	for _, p := range phases {
		wall = wall || p.WallNs > 0
	}
	fmt.Fprintf(w, "%-44s %8s %10s %12s %8s", "phase", "rounds", "messages", "words", "cut")
	if wall {
		fmt.Fprintf(w, " %10s", "wall_ms")
	}
	fmt.Fprintln(w)
	for _, p := range phases {
		name := p.Path
		if p.Open {
			name += " (open)"
		}
		fmt.Fprintf(w, "%-44s %8d %10d %12d %8d", name, p.Rounds, p.Messages, p.Words, p.CutWords)
		if wall {
			fmt.Fprintf(w, " %10.3f", float64(p.WallNs)/1e6)
		}
		fmt.Fprintln(w)
	}
}

// WriteTagTable prints the per-tag totals as an aligned text table, by
// descending word volume.
func WriteTagTable(w io.Writer, perTag map[string]TagStat) {
	type row struct {
		tag string
		st  TagStat
	}
	rows := make([]row, 0, len(perTag))
	for tag, st := range perTag {
		rows = append(rows, row{tag, st})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].st.Words != rows[j].st.Words {
			return rows[i].st.Words > rows[j].st.Words
		}
		return rows[i].tag < rows[j].tag
	})
	fmt.Fprintf(w, "%-10s %10s %12s\n", "tag", "messages", "words")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %12d\n", r.tag, r.st.Messages, r.st.Words)
	}
}
