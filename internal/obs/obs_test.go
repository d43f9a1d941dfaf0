package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
)

// feed hands the events to o in order, skipping the kinds o does not
// want, as a network would.
func feed(o congest.Observer, evs ...congest.Event) {
	want := o.Wants()
	for i := range evs {
		if want.Has(evs[i].Kind) {
			o.Observe(&evs[i])
		}
	}
}

// Event constructors for feed.

func evRun(begin bool, round int) congest.Event {
	if begin {
		return congest.Event{Kind: congest.KindRunStart, Round: round}
	}
	return congest.Event{Kind: congest.KindRunEnd, Round: round}
}

func evPhase(begin bool, path string, round int) congest.Event {
	if begin {
		return congest.Event{Kind: congest.KindPhaseBegin, Round: round, Phase: path}
	}
	return congest.Event{Kind: congest.KindPhaseEnd, Round: round, Phase: path}
}

func evMsg(round, from, to int, m congest.Msg) congest.Event {
	return congest.Event{Kind: congest.KindMessage, Round: round, From: from, To: to, Msg: m}
}

func evRound(round int, rs congest.RoundStats) congest.Event {
	return congest.Event{Kind: congest.KindRoundEnd, Round: round, Stats: rs}
}

// drive feeds n synthetic rounds into the collector, one message per round
// with increasing congestion figures, and returns the expected word total.
func drive(c *Collector, n int) int {
	words := 0
	feed(c, evRun(true, 0))
	for r := 1; r <= n; r++ {
		w := 2 // tag + one payload word
		words += w
		feed(c,
			congest.Event{Kind: congest.KindRoundStart, Round: r},
			evMsg(r, 0, 1, congest.Msg{Tag: int64(r % 3), Words: []int64{int64(r)}}),
			evRound(r, congest.RoundStats{
				Messages: 1, Words: w, Active: 2,
				MaxLinkWords: r % 5, MaxQueueLen: r % 7,
			}))
	}
	feed(c, evRun(false, n))
	return words
}

func TestCollectorTotalsAndSeries(t *testing.T) {
	c := &Collector{}
	words := drive(c, 10)
	if c.Rounds != 10 || c.Messages != 10 || c.Words != words {
		t.Errorf("totals: rounds=%d messages=%d words=%d, want 10/10/%d",
			c.Rounds, c.Messages, c.Words, words)
	}
	if c.PeakLinkWords != 4 || c.PeakQueueLen != 6 {
		t.Errorf("peaks: link=%d queue=%d, want 4 and 6", c.PeakLinkWords, c.PeakQueueLen)
	}
	if len(c.Series) != 10 {
		t.Fatalf("series length %d, want 10 (no decimation)", len(c.Series))
	}
	for i, s := range c.Series {
		if s.Round != i+1 || s.Span != 1 || s.Messages != 1 {
			t.Errorf("series[%d] = %+v, want round=%d span=1 messages=1", i, s, i+1)
		}
	}
	// Per-tag totals: tags 0,1,2 cycle over 10 rounds.
	if got := c.PerTag[1].Messages; got != 4 {
		t.Errorf("PerTag[1].Messages = %d, want 4", got)
	}
	if got := c.PerLink[LinkKey{From: 0, To: 1}].Words; got != words {
		t.Errorf("PerLink words = %d, want %d", got, words)
	}
}

func TestCollectorSheddingSwitches(t *testing.T) {
	c := &Collector{NoSeries: true, NoPerTag: true, NoPerLink: true}
	drive(c, 5)
	if c.Series != nil || c.PerTag != nil || c.PerLink != nil {
		t.Errorf("No* switches left data structures populated: %v %v %v",
			c.Series, c.PerTag, c.PerLink)
	}
	if c.Rounds != 5 || c.Messages != 5 {
		t.Errorf("totals must still accumulate: rounds=%d messages=%d", c.Rounds, c.Messages)
	}
}

func TestCollectorDecimation(t *testing.T) {
	const maxSeries, rounds = 8, 100
	c := &Collector{MaxSeries: maxSeries}
	words := drive(c, rounds)
	if len(c.Series) > maxSeries {
		t.Fatalf("series length %d exceeds MaxSeries %d", len(c.Series), maxSeries)
	}
	// Nothing may be lost: bucket spans cover every round exactly once and
	// counts sum to the totals (the run end flushed the pending bucket).
	spanSum, msgSum, wordSum, next := 0, 0, 0, 1
	for i, s := range c.Series {
		if s.Round != next {
			t.Errorf("bucket %d starts at round %d, want %d", i, s.Round, next)
		}
		next = s.Round + s.Span
		spanSum += s.Span
		msgSum += s.Messages
		wordSum += s.Words
	}
	if spanSum != rounds || msgSum != rounds || wordSum != words {
		t.Errorf("buckets cover span=%d msgs=%d words=%d, want %d/%d/%d",
			spanSum, msgSum, wordSum, rounds, rounds, words)
	}
}

func TestCollectorPhaseAttribution(t *testing.T) {
	c := &Collector{}
	feed(c,
		evRun(true, 0),
		evPhase(true, "outer", 0),
		evRound(1, congest.RoundStats{Messages: 1, Words: 2}),
		evPhase(true, "outer/inner", 1),
		evRound(2, congest.RoundStats{Messages: 10, Words: 20}),
		evPhase(false, "outer/inner", 2),
		evRound(3, congest.RoundStats{Messages: 100, Words: 200}),
		evPhase(false, "outer", 3),
		evRun(false, 3))

	if len(c.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(c.Phases))
	}
	outer, inner := c.Phases[0], c.Phases[1]
	if outer.Path != "outer" || inner.Path != "outer/inner" {
		t.Fatalf("paths %q %q", outer.Path, inner.Path)
	}
	// Traffic is attributed exclusively to the innermost open span.
	if inner.Messages != 10 || inner.Words != 20 || inner.Rounds != 1 {
		t.Errorf("inner = %+v, want messages=10 words=20 rounds=1", inner)
	}
	if outer.Messages != 101 || outer.Words != 202 || outer.Rounds != 2 {
		t.Errorf("outer = %+v, want messages=101 words=202 rounds=2 (inner excluded)", outer)
	}
	if outer.Open || inner.Open {
		t.Errorf("spans left open: %+v %+v", outer, inner)
	}
	if inner.BeginRound != 1 || inner.EndRound != 2 {
		t.Errorf("inner rounds [%d,%d], want [1,2]", inner.BeginRound, inner.EndRound)
	}
}

func TestCollectorReservoirDeterministic(t *testing.T) {
	sample := func() []MsgEvent {
		c := &Collector{SampleMessages: 8, NoPerTag: true, NoPerLink: true, NoSeries: true}
		for i := 0; i < 500; i++ {
			feed(c, evMsg(i, i%7, (i+1)%7, congest.Msg{Tag: int64(i)}))
		}
		return c.Sampled
	}
	a, b := sample(), sample()
	if len(a) != 8 {
		t.Fatalf("reservoir size %d, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reservoir not deterministic: %v vs %v", a, b)
		}
	}
	// A reservoir over fewer events than its capacity keeps everything.
	c := &Collector{SampleMessages: 8}
	feed(c, evMsg(1, 0, 1, congest.Msg{Tag: 5}))
	if len(c.Sampled) != 1 || c.Sampled[0].Tag != 5 {
		t.Errorf("small stream sample = %v", c.Sampled)
	}
}

func TestSummaryExports(t *testing.T) {
	c := &Collector{SampleMessages: 4}
	feed(c, evPhase(true, "p", 0))
	drive(c, 6)
	feed(c, evPhase(false, "p", 6))
	sum := c.Summary()

	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Summary
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("summary JSON does not round-trip: %v", err)
	}
	if round.Rounds != 6 || round.Messages != 6 || len(round.Series) != 6 {
		t.Errorf("round-tripped summary %+v", round)
	}
	if len(round.PerTag) == 0 || len(round.Phases) != 1 || len(round.Sampled) == 0 {
		t.Errorf("summary missing sections: perTag=%d phases=%d sampled=%d",
			len(round.PerTag), len(round.Phases), len(round.Sampled))
	}

	buf.Reset()
	if err := sum.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("CSV has %d lines, want header + 6 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "round,span,messages,words") {
		t.Errorf("CSV header = %q", lines[0])
	}

	buf.Reset()
	WritePhaseTable(&buf, sum.Phases)
	if !strings.Contains(buf.String(), "p") {
		t.Errorf("phase table missing span: %q", buf.String())
	}
	buf.Reset()
	WriteTagTable(&buf, sum.PerTag)
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 4 {
		t.Errorf("tag table has %d lines, want header + 3 tags", got)
	}
}

func TestJSONLTrace(t *testing.T) {
	var buf bytes.Buffer
	j := &JSONL{W: &buf, Words: true}
	feed(j,
		evRun(true, 0),
		evPhase(true, "p", 0),
		evMsg(1, 0, 1, congest.Msg{Tag: 3, Words: []int64{7, 9}}),
		evRound(1, congest.RoundStats{Messages: 1, Words: 3, Active: 2}),
		evPhase(false, "p", 1),
		evRun(false, 1))
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(lines), buf.String())
	}
	wantEv := []string{"run", "phase", "msg", "round", "phase", "run"}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev["ev"] != wantEv[i] {
			t.Errorf("event %d is %q, want %q", i, ev["ev"], wantEv[i])
		}
		if ev["ev"] == "msg" {
			if size, _ := ev["size"].(float64); size != 3 {
				t.Errorf("msg size = %v, want 3: %s", ev["size"], line)
			}
			if words, _ := ev["words"].([]any); len(words) != 2 {
				t.Errorf("msg words = %v, want 2 payload words: %s", ev["words"], line)
			}
		}
	}
}

// TestCollectorAgainstEngine cross-checks a collector attached to a real
// network run against the engine's own Stats, including the per-round
// series summing back to the totals.
func TestCollectorAgainstEngine(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.2, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net, err := congest.NewNetwork(g, congest.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	net.SetObserver(col)
	n := g.N()
	heard := make([]bool, n)
	progs := make([]congest.Program, n)
	for v := 0; v < n; v++ {
		v := v
		progs[v] = congest.Funcs{
			OnInit: func(nd *congest.Node) {
				if v == 0 {
					heard[v] = true
					for _, u := range nd.Neighbors() {
						nd.SendTag(u, 1, 0)
					}
				}
			},
			OnDeliver: func(nd *congest.Node, d congest.Delivery) {
				if heard[v] {
					return
				}
				heard[v] = true
				for _, u := range nd.Neighbors() {
					if u != d.From {
						nd.SendTag(u, 1, d.Msg.Words[0]+1)
					}
				}
			},
		}
	}
	net.BeginPhase("flood")
	if _, err := net.Run(progs, 0); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
	s := net.Stats()
	if col.Rounds != s.Rounds || col.Messages != s.Messages ||
		col.Words != s.Words || col.Activations != s.Activations {
		t.Errorf("collector %d/%d/%d/%d disagrees with stats %+v",
			col.Rounds, col.Messages, col.Words, col.Activations, s)
	}
	msgSum := 0
	for _, b := range col.Series {
		msgSum += b.Messages
	}
	if msgSum != s.Messages {
		t.Errorf("series sums to %d messages, stats say %d", msgSum, s.Messages)
	}
	if len(col.Phases) != 1 || col.Phases[0].Messages != s.Messages {
		t.Errorf("phase table %+v does not carry the run's traffic (stats %+v)", col.Phases, s)
	}
	if col.PeakLinkWords <= 0 || col.PeakLinkWords > s.Words {
		t.Errorf("implausible PeakLinkWords %d", col.PeakLinkWords)
	}
}
