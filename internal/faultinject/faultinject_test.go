package faultinject

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	in, err := Parse("verb=pull;action=delay;delay=250ms;jitter=50ms | action=refuse;every=2")
	if err != nil {
		t.Fatal(err)
	}
	rules := in.Rules()
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if rules[0].Verb != "pull" || rules[0].Action != ActionDelay || rules[0].Delay != 250*time.Millisecond || rules[0].Jitter != 50*time.Millisecond {
		t.Fatalf("rule 0 parsed wrong: %+v", rules[0])
	}
	if rules[1].Action != ActionRefuse || rules[1].Every != 2 {
		t.Fatalf("rule 1 parsed wrong: %+v", rules[1])
	}
	for _, bad := range []string{"", "verb=pull", "action=explode", "nonsense", "action=delay;delay=forever"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestRuleSelectors(t *testing.T) {
	r := &Rule{Action: ActionDelay, Nth: 3}
	got := []bool{r.take(), r.take(), r.take(), r.take()}
	want := []bool{false, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nth=3: call %d fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	r = &Rule{Action: ActionDelay, Every: 2}
	got = []bool{r.take(), r.take(), r.take(), r.take()}
	want = []bool{false, true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("every=2: call %d fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	r = &Rule{Action: ActionDelay, Times: 2}
	fired := 0
	for i := 0; i < 5; i++ {
		if r.take() {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("times=2: fired %d, want 2", fired)
	}
}

// frame helpers matching the shardrpc wire format.
func writeFrameErr(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func writeTestFrame(t *testing.T, w io.Writer, v any) {
	t.Helper()
	if err := writeFrameErr(w, v); err != nil {
		t.Fatal(err)
	}
}

func readTestFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

type testMsg struct {
	Verb string `json:"verb"`
	Body string `json:"body,omitempty"`
}

// echoServer accepts connections on ln and answers every request frame
// with one response frame echoing the verb.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					var req testMsg
					if err := readTestFrame(c, &req); err != nil {
						return
					}
					// Write failures (e.g. an injected reset) end the
					// connection, as a real server loop would.
					if err := writeFrameErr(c, testMsg{Verb: req.Verb, Body: "response to " + req.Verb}); err != nil {
						return
					}
				}
			}(c)
		}
	}()
}

func faultedListener(t *testing.T, in *Injector) net.Listener {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener(raw)
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestRefuseAtAccept(t *testing.T) {
	in := New(&Rule{Action: ActionRefuse, Nth: 1})
	ln := faultedListener(t, in)
	echoServer(t, ln)

	// First connection is refused: dial may succeed (the kernel accepts)
	// but the first read sees EOF without a response.
	c1, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		// The write itself may fail (broken pipe) — either way no
		// response must arrive.
		if writeFrameErr(c1, testMsg{Verb: "ping"}) == nil {
			var resp testMsg
			if err := readTestFrame(c1, &resp); err == nil {
				t.Fatal("refused connection answered a request")
			}
		}
		c1.Close()
	}
	// Second connection works.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	writeTestFrame(t, c2, testMsg{Verb: "ping"})
	var resp testMsg
	if err := readTestFrame(c2, &resp); err != nil {
		t.Fatalf("second connection failed: %v", err)
	}
	if resp.Verb != "ping" {
		t.Fatalf("echoed verb %q, want ping", resp.Verb)
	}
	if in.Fired() != 1 {
		t.Fatalf("fired %d faults, want 1", in.Fired())
	}
}

func TestDelayMatchesVerbOnly(t *testing.T) {
	const delay = 150 * time.Millisecond
	in := New(&Rule{Verb: "pull", Action: ActionDelay, Delay: delay})
	ln := faultedListener(t, in)
	echoServer(t, ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	roundTrip := func(verb string) time.Duration {
		start := time.Now()
		writeTestFrame(t, c, testMsg{Verb: verb})
		var resp testMsg
		if err := readTestFrame(c, &resp); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	if d := roundTrip("ping"); d >= delay {
		t.Fatalf("unmatched verb delayed %v", d)
	}
	if d := roundTrip("pull"); d < delay {
		t.Fatalf("matched verb answered in %v, want >= %v", d, delay)
	}
}

func TestCorruptKeepsFraming(t *testing.T) {
	in := New(&Rule{Action: ActionCorrupt})
	ln := faultedListener(t, in)
	echoServer(t, ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeTestFrame(t, c, testMsg{Verb: "pull", Body: "a recognizable body"})
	var resp testMsg
	err = readTestFrame(c, &resp)
	if err == nil {
		t.Fatal("corrupted frame decoded cleanly")
	}
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	if !errors.As(err, &syn) && !errors.As(err, &typ) {
		t.Fatalf("want a JSON decode error (whole frame, bad payload), got %v", err)
	}
}

func TestResetKillsConnectionMidFrame(t *testing.T) {
	in := New(&Rule{Verb: "next", Action: ActionReset})
	ln := faultedListener(t, in)
	echoServer(t, ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeTestFrame(t, c, testMsg{Verb: "pull"})
	var resp testMsg
	if err := readTestFrame(c, &resp); err != nil {
		t.Fatalf("pull should pass: %v", err)
	}
	writeTestFrame(t, c, testMsg{Verb: "next"})
	if err := readTestFrame(c, &resp); err == nil {
		t.Fatal("reset connection delivered a whole response")
	}
}

func TestDripDeliversSlowlyButWhole(t *testing.T) {
	in := New(&Rule{Action: ActionDrip, Chunk: 4, Gap: 5 * time.Millisecond})
	ln := faultedListener(t, in)
	echoServer(t, ln)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	writeTestFrame(t, c, testMsg{Verb: "pull"})
	var resp testMsg
	if err := readTestFrame(c, &resp); err != nil {
		t.Fatalf("dripped frame should still decode: %v", err)
	}
	if resp.Body != "response to pull" {
		t.Fatalf("dripped body %q mangled", resp.Body)
	}
	// ~40 bytes at 4 bytes per 5ms gap: well over 25ms.
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("drip finished in %v, too fast to have dripped", d)
	}
}

func TestSetEnabledHealsFaults(t *testing.T) {
	in := New(&Rule{Action: ActionCorrupt})
	ln := faultedListener(t, in)
	echoServer(t, ln)
	in.SetEnabled(false)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeTestFrame(t, c, testMsg{Verb: "pull"})
	var resp testMsg
	if err := readTestFrame(c, &resp); err != nil {
		t.Fatalf("disabled injector corrupted a frame: %v", err)
	}
	if in.Fired() != 0 {
		t.Fatalf("disabled injector fired %d faults", in.Fired())
	}
}

// requestFrame builds a shardrpc request frame with the given verb byte,
// as far as the injector reads one: length prefix, magic, version, verb.
func requestFrame(verb byte) []byte {
	payload := append([]byte("PRXQ"), 1, verb, 0, 0)
	payload = append(payload, make([]byte, 32)...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestNextRuleFiresOnRequestFrame: a rule on "next" matches the verb
// byte of a binary request frame, and leaves a "pull" frame alone.
func TestNextRuleFiresOnRequestFrame(t *testing.T) {
	in := New(&Rule{Verb: "next", Action: ActionReset})
	ln := faultedListener(t, in)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			if _, err := io.CopyN(io.Discard, c, int64(binary.BigEndian.Uint32(hdr[:]))); err != nil {
				return
			}
			if writeFrameErr(c, testMsg{Verb: "rows"}) != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp testMsg
	for i, verb := range []byte{1, 2} {
		if _, err := c.Write(requestFrame(verb)); err != nil {
			t.Fatal(err)
		}
		err := readTestFrame(c, &resp)
		if pull := i == 0; pull != (err == nil) {
			t.Fatalf("verb byte %d: err = %v", verb, err)
		}
	}
	if in.Fired() != 1 {
		t.Fatalf("fired %d faults, want 1", in.Fired())
	}
}
