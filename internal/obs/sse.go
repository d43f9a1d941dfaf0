package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"congestmwc/internal/httpx"
)

// ServeSSE streams sub to the client as Server-Sent Events and closes sub
// when it returns. Each event is written as
//
//	id: <epoch>-<seq>
//	event: <type>
//	data: <the Event as one-line JSON>
//
// A ": heartbeat" comment goes out every heartbeat interval, so proxies and
// clients see traffic while a long phase produces no events. The stream
// ends when the hub closes (after a ": stream closed (dropped N events)"
// comment reporting backpressure loss), when the client goes away, or when
// drain fires (after a ": server draining" comment).
//
// A reconnecting client sends the Last-Event-ID header; events it already
// saw are skipped rather than replayed, but only when its ID carries the
// current epoch. Hubs renumber from 1 under a fresh epoch (a cluster
// hand-off attempt, a session recompute generation), so a resume point
// from an earlier epoch triggers a full replay instead of silently
// suppressing the new epoch's early events.
func ServeSSE(w http.ResponseWriter, r *http.Request, sub *Subscription, epoch uint64, heartbeat time.Duration, drain <-chan struct{}) {
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		httpx.Error(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	var after uint64
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		if ce, cs, ok := ParseSSEID(raw); ok && ce == epoch {
			after = cs
		}
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // keep reverse proxies from buffering the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				fmt.Fprintf(w, ": stream closed (dropped %d events)\n\n", sub.Dropped())
				fl.Flush()
				return
			}
			if ev.Seq <= after {
				continue // already delivered before the reconnect
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %s\nevent: %s\ndata: %s\n\n", FormatSSEID(epoch, ev.Seq), ev.Type, data); err != nil {
				return // client gone mid-write
			}
			fl.Flush()
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-drain:
			fmt.Fprint(w, ": server draining\n\n")
			fl.Flush()
			return
		}
	}
}

// FormatSSEID renders an epoch-tagged SSE event ID. Stream epochs fence
// Last-Event-ID resumption across hub restarts: each hand-off attempt (and
// each session recompute generation) publishes under a fresh epoch whose
// sequence numbers restart at 1, so a client resuming with a high sequence
// from a previous epoch must not have the new epoch's early events
// suppressed. The wire form is "<epoch>-<seq>".
func FormatSSEID(epoch, seq uint64) string {
	return fmt.Sprintf("%d-%d", epoch, seq)
}

// ParseSSEID parses an SSE event ID produced by FormatSSEID. A bare
// sequence number — the pre-epoch wire format, or an ID minted by an older
// peer — is accepted as epoch 1, keeping old clients resumable against new
// servers and vice versa.
func ParseSSEID(s string) (epoch, seq uint64, ok bool) {
	if e, rest, found := strings.Cut(s, "-"); found {
		epoch, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		seq, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		return epoch, seq, true
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return 1, seq, true
}

// SSEFrame is one parsed Server-Sent Events frame: either the dispatched
// field values of one id/event/data block, or a single comment line
// (Comment set, the other fields empty). This is the client-side
// counterpart of ServeSSE's wire format; cmd/mwctail
// and the cluster tests parse streams through it.
type SSEFrame struct {
	ID      string
	Event   string
	Data    string
	Comment string // ": ..." keep-alive or notice, without the colon
}

// ParseSSE reads Server-Sent Events frames from r, invoking fn for each
// dispatched event and each comment line, until EOF (a clean end of
// stream, returning nil), a read error, or the first non-nil error from fn
// (returned as-is, so callers can stop a tail early with a sentinel).
func ParseSSE(r io.Reader, fn func(SSEFrame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var cur SSEFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" || cur.Data != "" {
				if err := fn(cur); err != nil {
					return err
				}
			}
			cur = SSEFrame{}
		case strings.HasPrefix(line, ":"):
			if err := fn(SSEFrame{Comment: strings.TrimPrefix(strings.TrimPrefix(line, ":"), " ")}); err != nil {
				return err
			}
		default:
			field, val, _ := strings.Cut(line, ":")
			val = strings.TrimPrefix(val, " ")
			switch field {
			case "id":
				cur.ID = val
			case "event":
				cur.Event = val
			case "data":
				if cur.Data != "" {
					cur.Data += "\n"
				}
				cur.Data += val
			}
		}
	}
	return sc.Err()
}
