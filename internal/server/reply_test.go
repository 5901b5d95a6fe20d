package server

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/route"
	"repro/internal/session"
	"repro/internal/unit"
)

// matchReply checks that writeReply writes v exactly as writeJSON's
// encoding/json does: status, headers and body, byte for byte.
func matchReply(t *testing.T, name string, v reply) {
	t.Helper()
	want := httptest.NewRecorder()
	writeJSON(want, 201, v)
	got := httptest.NewRecorder()
	writeReply(got, 201, v)
	if got.Code != want.Code {
		t.Errorf("%s: status %d, encoding/json %d", name, got.Code, want.Code)
	}
	for _, h := range []string{"Content-Type", "Content-Length"} {
		if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
			t.Errorf("%s: %s %q, encoding/json %q", name, h, g, w)
		}
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: body\n%s\nencoding/json\n%s", name, got.Body.Bytes(), want.Body.Bytes())
	}
}

// matchReplies checks the four session replies built from one snapshot
// and one record: get and close (the snapshot), create and faults.
func matchReplies(t *testing.T, name string, snap session.Snapshot, rec session.RepairRecord, errMsg string, cached bool) {
	t.Helper()
	matchReply(t, name+"/snapshot", &snap)
	matchReply(t, name+"/create", &sessionResponse{Snapshot: snap, Cached: cached,
		Session: "/v1/sessions/" + snap.ID, Faults: "/v1/sessions/" + snap.ID + "/faults"})
	matchReply(t, name+"/faults", &repairResponse{Record: rec, Snapshot: snap, Error: errMsg})
}

// TestSessionRepliesMatchEncodingJSON: the session replies jsonw writes
// are the bytes encoding/json writes for the same values: nil and empty
// repairs, escalations and single points (all omitted), every omitempty
// member at its zero value and set, strings that need HTML-safe or
// invalid-UTF-8 escaping, extreme integers, and the replies of a real
// session after repairs at two rungs.
func TestSessionRepliesMatchEncodingJSON(t *testing.T) {
	odd := []string{"", "<&>", "a\u2028b\u2029c", "bad\xffutf8\xc3", `q"uo\te`, "tab\tnl\n", "é😀"}
	full := session.RepairRecord{Index: 3, At: 1500, Rung: session.RungReschedule, Outcome: session.OutcomeDegraded,
		CellsLost: 2, CompsLost: 1, Makespan: 90000, Fingerprint: "ab<cd>", Escalations: []string{session.RungReroute, "<x>"},
		Err: "e&f", Dur: 1234567}
	for i, s := range odd {
		snap := session.Snapshot{ID: s, State: session.State(s), Fingerprint: s, SinglePoints: []string{s, "detect"},
			Repairs: []session.RepairRecord{full, {Rung: s, Outcome: s, Fingerprint: s, Escalations: []string{s}, Err: s}}}
		matchReplies(t, "odd"+string(rune('0'+i)), snap, session.RepairRecord{Rung: s, Err: s, Escalations: []string{s}}, s, i%2 == 0)
	}
	for name, snap := range map[string]session.Snapshot{
		"zero":  {},
		"empty": {Repairs: []session.RepairRecord{}, SinglePoints: []string{}},
		"extreme": {ID: "s-1", State: session.Active, Cut: unit.Time(math.MinInt64), Makespan: unit.Time(math.MaxInt64),
			GridW: math.MaxInt32, GridH: -1, CellsLost: -7, CompsLost: math.MaxInt},
		"records": {Repairs: []session.RepairRecord{{}, full, {Escalations: []string{}}, {Dur: time.Duration(math.MinInt64)}}},
	} {
		for _, rec := range []session.RepairRecord{{}, full, {Escalations: []string{}}, {Makespan: -1, Dur: math.MaxInt64}} {
			matchReplies(t, name, snap, rec, "", false)
			matchReplies(t, name, snap, rec, "abandoned: <why>", true)
		}
	}

	// A real session: the snapshot after a reroute and a reschedule, and
	// the record of each.
	s := newAllocServer(t)
	cell, at := sessionSuffixCell(t)
	st, _, err := s.openSession(context.Background(), "s-real", mustResolve(t, sessionBody), s.newRecorder("", ""))
	if err != nil {
		t.Fatal(err)
	}
	matchReplies(t, "open", st.sess.Snapshot(), session.RepairRecord{}, "", true)
	rec, err := st.sess.Repair(context.Background(), session.FaultReport{At: at, Cells: []route.Cell{cell}})
	if err != nil {
		t.Fatal(err)
	}
	matchReplies(t, "reroute", st.sess.Snapshot(), rec, "", false)
	comp := idleComp(t, st.sess.Solution(), at)
	if rec, err = st.sess.Repair(context.Background(), session.FaultReport{At: at, Comps: []chip.CompID{comp}}); err != nil {
		t.Fatal(err)
	}
	matchReplies(t, "reschedule", st.sess.Snapshot(), rec, "", false)
}

// FuzzSessionRepliesMatchEncodingJSON holds the session reply writers to
// encoding/json over arbitrary strings and integers, with the repairs,
// escalations and single points each nil, empty or filled.
func FuzzSessionRepliesMatchEncodingJSON(f *testing.F) {
	f.Add("s-1", "active", "<&>", "a b", "bad\xff", int64(0), int64(90000), 3, byte(0))
	f.Add("", "", "", "", "", int64(-1), int64(math.MaxInt64), 0, byte(0xff))
	f.Add("é😀", `q"\`, "\x00\x1f", "reroute", "detect", int64(math.MinInt64), int64(7), 255, byte(0x5a))
	f.Fuzz(func(t *testing.T, id, state, fp, rung, point string, cut, dur int64, n int, flags byte) {
		n &= 3
		list := func(bit byte, s string) []string {
			switch {
			case flags&bit == 0:
				return nil
			case n == 0:
				return []string{}
			}
			out := make([]string, n)
			for i := range out {
				out[i] = s
			}
			return out
		}
		rec := session.RepairRecord{Index: n, At: unit.Time(cut), Rung: rung, Outcome: state,
			CellsLost: int(cut % 1000), CompsLost: n, Makespan: unit.Time(dur), Fingerprint: fp,
			Escalations: list(1, rung), Err: point, Dur: time.Duration(dur)}
		snap := session.Snapshot{ID: id, State: session.State(state), Cut: unit.Time(cut), Makespan: unit.Time(dur),
			GridW: n, GridH: int(cut % 97), CellsLost: int(dur % 5), CompsLost: n, Fingerprint: fp,
			SinglePoints: list(2, point)}
		if flags&4 != 0 {
			snap.Repairs = make([]session.RepairRecord, n)
			for i := range snap.Repairs {
				snap.Repairs[i] = rec
			}
		}
		matchReplies(t, "fuzz", snap, rec, point, flags&8 != 0)
	})
}
