package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"netdiversity/internal/wal"
)

// TestReplicaResyncNeverHidesSession hammers every read endpoint a follower
// serves while ReplicaCreate re-installs the same session over and over (what
// a full-sync repair does).  The session exists on both nodes throughout, so
// every read must answer 200: never 404 (ID missing between the old
// incarnation's removal and the new one's insert), never 409 (inserted but
// not yet published), and a read queued on the replaced incarnation's writer
// slot must follow the swap.
func TestReplicaResyncNeverHidesSession(t *testing.T) {
	for _, persist := range []bool{false, true} {
		t.Run(fmt.Sprintf("persist=%v", persist), func(t *testing.T) {
			primary, pts := newTestServer(t, Config{})
			const hosts = 12
			if status := do(t, http.MethodPost, pts.URL+"/v1/networks", CreateRequest{
				ID: "r0", Spec: testSpec(hosts), Seed: 3,
			}, nil); status != http.StatusCreated {
				t.Fatalf("create: status %d", status)
			}
			snap, err := primary.CurrentSnapshot("r0")
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{}
			if persist {
				cfg.Persist = openWAL(t, t.TempDir(), wal.Options{})
			}
			follower, fts := newTestServer(t, cfg)
			follower.SetFollower(pts.URL)
			if err := follower.ReplicaCreate(snap); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			read := func(method string, url func(i int) string, body string) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					req, err := http.NewRequest(method, url(i), strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					msg, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s %s during re-sync: status %d: %s", method, url(i), resp.StatusCode, msg)
						return
					}
				}
			}
			fixed := func(path string) func(int) string {
				return func(int) string { return fts.URL + "/v1/networks/r0" + path }
			}
			wg.Add(4)
			go read(http.MethodGet, fixed(""), "")
			go read(http.MethodGet, fixed("/assignment"), "")
			// A new entry/target pair every request misses the encoded cache,
			// so the handler queues on the writer slot.
			go read(http.MethodGet, func(i int) string {
				return fmt.Sprintf("%s/v1/networks/r0/metrics?entry=h%d&target=h%d", fts.URL, i%hosts, (i+1+(i/hosts)%(hosts-1))%hosts)
			}, "")
			go read(http.MethodPost, fixed("/assess"), `{"runs":5,"max_ticks":20}`)

			for i := 0; i < 300 && !t.Failed(); i++ {
				if err := follower.ReplicaCreate(snap); err != nil {
					t.Errorf("re-sync %d: %v", i, err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if n := follower.store.len(); n != 1 {
				t.Errorf("store holds %d sessions after the re-syncs, want 1", n)
			}
		})
	}
}
