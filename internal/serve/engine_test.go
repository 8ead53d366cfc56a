package serve

import (
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/trace"
)

func testClip(t testing.TB, frames int) *trace.Clip {
	t.Helper()
	return testClips(t, 1, frames)[0]
}

// testClips generates k small clips that differ by seed.
func testClips(t testing.TB, k, frames int) []*trace.Clip {
	t.Helper()
	clips := make([]*trace.Clip, k)
	for i := range clips {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = frames
		cfg.Seed += int64(i)
		cfg.MaxFrame = 30
		cfg.MeanI, cfg.MeanP, cfg.MeanB = 20, 14, 6
		clip, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clips[i] = clip
	}
	return clips
}

// contents are the two things an engine serves. Behaviour that belongs to
// the engine rather than to what it sends — admission, limits, deadlines —
// is tested against both.
var contents = []struct {
	name    string
	streams int
}{{"clip", 1}, {"mux3", 3}}

// startEngine starts an engine over `streams` test clips — New for one,
// NewMux for several — with cfg.Rate set to twice their combined average
// rate, so nothing is shed. It also returns the frames a session plays.
func startEngine(t *testing.T, streams, frames int, cfg Config) (eng *Engine, played int) {
	t.Helper()
	clips := testClips(t, streams, frames)
	for _, c := range clips {
		cfg.Rate += 2 * int(c.AverageRate())
	}
	var err error
	if streams == 1 {
		eng, err = New(clips[0], trace.PaperWeights(), cfg)
	} else {
		eng, err = NewMux(clips, trace.PaperWeights(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return eng, streams * frames
}

// clientResult is what one load-generating client observed.
type clientResult struct {
	stats  netstream.PlayStats
	played map[int]bool // slice IDs delivered complete and on time
}

// runClient drives one receive session of `streams` substreams against conn
// and records the exact set of played slice IDs.
func runClient(conn net.Conn, delay, streams int) (clientResult, error) {
	res := clientResult{played: map[int]bool{}}
	stats, err := netstream.Receive(conn, delay, streams, func(d *netstream.Data) {
		res.played[int(d.SliceID)] = true
	})
	res.stats = stats
	return res, err
}

// runEngine serves `clients` concurrent sessions, each asking for the
// given delay, from an engine built with cfg and returns each client's
// result. Over tcp the sessions cross loopback sockets, which the engine
// adopts and writes with non-blocking write(2); otherwise net.Pipe.
func runEngine(t *testing.T, clip *trace.Clip, cfg Config, clients, delay int, tcp bool) []clientResult {
	t.Helper()
	eng, err := New(clip, trace.PaperWeights(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var ln net.Listener
	if tcp {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
	}

	results := make([]clientResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		server, client := net.Pipe()
		if tcp {
			if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
				t.Fatal(err)
			}
			if server, err = ln.Accept(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			results[i], errs[i] = runClient(c, delay, 1)
			_ = c.Close()
		}(i, client)
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			if err := eng.Handle(c); err != nil {
				t.Errorf("handle: %v", err)
			}
		}(server)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if !eng.Drain(5 * time.Second) {
		t.Fatal("drain timed out with no sessions left")
	}
	if got := eng.ServedSessions(); got != clients {
		t.Errorf("served %d sessions, want %d", got, clients)
	}
	return results
}

// TestShardCountInvariance — the determinism analogue of the sweep engine's
// worker-count invariance: the same clip and policy must yield the same
// per-session played/dropped sets whether the engine runs 1 shard or many.
// Each case also checks what its sessions must observe.
func TestShardCountInvariance(t *testing.T) {
	small := testClip(t, 30)
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 400
	live, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		clip           *trace.Clip
		cfg            Config
		clients, delay int
		tcp            bool
		check          func(t *testing.T, st netstream.PlayStats, frames int)
	}{{
		// The link rate is 2x the average: nothing is lost, late or
		// corrupt, at the delay the client asked for.
		name: "pipe", clip: small, clients: 6, delay: 8,
		cfg: Config{Rate: 2 * int(small.AverageRate()), StepDuration: 200 * time.Microsecond, MaxDelay: 8},
		check: func(t *testing.T, st netstream.PlayStats, frames int) {
			if st.Incomplete != 0 || st.Corrupt != 0 || st.LateBytes != 0 || st.Delay != 8 || st.Played != frames {
				t.Errorf("lossless setup lost data: %+v, %d frames", st, frames)
			}
		},
	}, {
		// A live clip paced at 95% of its average rate over loopback TCP:
		// the smoothing buffer sheds a few whole frames (greedy keeps the
		// valuable ones), and everything played arrives intact and on time
		// within the R·D client buffer, with no clock synchronization
		// between the endpoints (Lemma 3.4).
		name: "livecast", clip: live, clients: 1, delay: 24, tcp: true,
		cfg: Config{Rate: int(0.95 * live.AverageRate()), StepDuration: 2 * time.Millisecond},
		check: func(t *testing.T, st netstream.PlayStats, frames int) {
			rd := int(0.95*live.AverageRate()) * st.Delay
			if st.Delay != 24 || st.Played != 371 || frames != 400 || st.Corrupt != 0 || st.MaxBuffer > rd {
				t.Errorf("played %d of %d frames at delay %d, %d corrupt, peak buffer %d (R*D = %d); want 371 of 400 at 24, 0 corrupt, peak <= R*D",
					st.Played, frames, st.Delay, st.Corrupt, st.MaxBuffer, rd)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Shards = 1
			one := runEngine(t, tc.clip, cfg, tc.clients, tc.delay, tc.tcp)
			cfg.Shards = 4
			four := runEngine(t, tc.clip, cfg, tc.clients, tc.delay, tc.tcp)

			for i := 0; i < tc.clients; i++ {
				a, b := one[i], four[i]
				if len(a.played) != len(b.played) {
					t.Fatalf("client %d: 1-shard played %d slices, 4-shard %d", i, len(a.played), len(b.played))
				}
				//smoothvet:ordered membership check only; any order reaches the same verdict
				for id := range a.played {
					if !b.played[id] {
						t.Fatalf("client %d: slice %d played at 1 shard but not at 4", i, id)
					}
				}
				if a.stats.Incomplete != b.stats.Incomplete || a.stats.LateBytes != b.stats.LateBytes ||
					a.stats.Corrupt != b.stats.Corrupt || a.stats.PlayedBytes != b.stats.PlayedBytes {
					t.Fatalf("client %d: stats diverge across shard counts: %+v vs %+v", i, a.stats, b.stats)
				}
			}
			// And every session of one engine run saw the same stream.
			for i := 1; i < tc.clients; i++ {
				if !reflect.DeepEqual(one[i].stats, one[0].stats) {
					t.Errorf("session %d diverged from session 0: %+v vs %+v", i, one[i].stats, one[0].stats)
				}
			}
			tc.check(t, one[0].stats, len(tc.clip.Frames))
		})
	}
}

// TestMaxSessionsRejects — the engine refuses connections over the cap and
// accepts again once a slot frees up, whatever it serves.
func TestMaxSessionsRejects(t *testing.T) {
	for _, content := range contents {
		t.Run(content.name, func(t *testing.T) {
			ended := make(chan struct{}, 2) // one send per admitted session
			eng, _ := startEngine(t, content.streams, 10, Config{
				Shards:        2,
				MaxSessions:   1,
				StepDuration:  200 * time.Microsecond,
				MaxDelay:      4,
				OnSessionDone: func(SessionStats, error) { ended <- struct{}{} },
			})
			defer eng.Close()

			server1, client1 := net.Pipe()
			handled := make(chan error, 1)
			go func() { handled <- eng.Handle(server1) }()
			clientDone := make(chan error, 1)
			go func() {
				_, err := runClient(client1, 4, content.streams)
				_ = client1.Close()
				clientDone <- err
			}()
			if err := <-handled; err != nil {
				t.Fatalf("first session rejected: %v", err)
			}

			// Second connection while the first is live: over the cap.
			server2, client2 := net.Pipe()
			go func() { _, _ = client2.Read(make([]byte, 1)) }() // observe the close
			if err := eng.Handle(server2); err == nil {
				t.Fatal("session over the cap accepted")
			}
			_ = client2.Close()

			if err := <-clientDone; err != nil {
				t.Fatalf("first client: %v", err)
			}
			// The client sees End a moment before the shard retires the session;
			// the slot is free once the shard has reported it done.
			<-ended
			// Slot freed: a new session is admitted again.
			server3, client3 := net.Pipe()
			go func() { handled <- eng.Handle(server3) }()
			go func() {
				_, err := runClient(client3, 4, content.streams)
				_ = client3.Close()
				clientDone <- err
			}()
			if err := <-handled; err != nil {
				t.Fatalf("post-drain session rejected: %v", err)
			}
			if err := <-clientDone; err != nil {
				t.Fatalf("post-drain client: %v", err)
			}
		})
	}
}

// TestDrainRejectsNewSessions — after Drain starts, Handle refuses.
func TestDrainRejectsNewSessions(t *testing.T) {
	clip := testClip(t, 5)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Drain(time.Second) {
		t.Fatal("drain of an idle engine timed out")
	}
	server, client := net.Pipe()
	go func() { _, _ = client.Read(make([]byte, 1)) }()
	if err := eng.Handle(server); err == nil {
		t.Error("session accepted while draining")
	}
	_ = client.Close()
}

// TestCloseAbortsInFlight — Close cuts sessions off mid-stream and the
// client sees a mid-stream error rather than a hang.
func TestCloseAbortsInFlight(t *testing.T) {
	clip := testClip(t, 200)
	aborted := make(chan error, 1)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		OnSessionDone: func(_ SessionStats, err error) {
			aborted <- err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go func() { _ = eng.Handle(server) }() // rejection also aborts the client below
	clientErr := make(chan error, 1)
	go func() {
		_, err := runClient(client, 8, 1)
		clientErr <- err
	}()
	// Let the stream get going, then kill the engine.
	time.Sleep(20 * time.Millisecond)
	eng.Close()
	if err := <-aborted; err == nil {
		t.Error("aborted session reported a clean finish")
	}
	if err := <-clientErr; err == nil {
		t.Error("client saw a clean end on an aborted stream")
	}
	_ = client.Close()
}

// TestMaxSessionsHoldsAcrossConcurrentHandshakes — the cap counts sessions,
// not moments: k connections that are all inside their handshake at once,
// each having passed the early check while no session was registered yet,
// must not all get a slot. net.Pipe is unbuffered, so a client's Hello write
// returns only once Handle has read it and is blocked writing the Accept;
// the clients read nothing until all k are held there.
func TestMaxSessionsHoldsAcrossConcurrentHandshakes(t *testing.T) {
	const k, limit = 8, 2
	for _, content := range contents {
		t.Run(content.name, func(t *testing.T) {
			// 50 ms steps: an admitted session outlives the whole admission
			// race, so no slot is legitimately handed on to a second one.
			eng, _ := startEngine(t, content.streams, 10, Config{
				Shards: 2, MaxSessions: limit, StepDuration: 50 * time.Millisecond, MaxDelay: 4,
			})
			defer eng.Close()
			handled := make(chan error, k)
			clients := make([]net.Conn, k)
			for i := range clients {
				server, client := net.Pipe()
				clients[i] = client
				go func() { handled <- eng.Handle(server) }()
				if err := netstream.WriteHello(client, netstream.Hello{DesiredDelay: 4}); err != nil {
					t.Fatal(err)
				}
			}
			var readers sync.WaitGroup
			for _, c := range clients {
				readers.Add(1)
				go func() { defer readers.Done(); _, _ = io.Copy(io.Discard, c) }()
			}
			admitted := 0
			for range clients {
				if err := <-handled; err == nil {
					admitted++
				}
			}
			if admitted != limit {
				t.Errorf("%d of %d concurrent handshakes admitted under a cap of %d", admitted, k, limit)
			}
			if got := eng.Obs().Snapshot(nil).Scalars[eng.met.cRejected]; got != uint64(k-admitted) {
				t.Errorf("serve_sessions_rejected_total %d, want %d", got, k-admitted)
			}
			for _, c := range clients {
				_ = c.Close()
			}
			readers.Wait()
			for deadline := time.Now().Add(5 * time.Second); eng.ActiveSessions() != 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d sessions still registered after every client hung up", eng.ActiveSessions())
				}
			}
		})
	}
}
