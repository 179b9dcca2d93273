package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsstudy/internal/cluster"
	"wsstudy/internal/core"
	"wsstudy/internal/fault"
	"wsstudy/internal/store"
)

// TestHealthzDocument pins the exact /healthz bytes — keys, states,
// reasons and status code — for the four states a node can report:
// healthy, disk degraded, one peer degraded, and closed. Operators and
// probes parse this document, so a change to the breaker behind it must
// not move a single byte.
func TestHealthzDocument(t *testing.T) {
	t.Cleanup(fault.DisarmAll)

	reg := []core.Experiment{{
		ID:    "plain",
		Title: "plain",
		Run: func(ctx context.Context, opt core.Options) (*core.Report, error) {
			return &core.Report{Title: "plain"}, nil
		},
	}}

	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (url string, scrub func(string) string)
		code  int
		want  string
	}{
		{"healthy", func(t *testing.T) (string, func(string) string) {
			_, hs := newTestServer(t, store.Config{Dir: t.TempDir()}, reg, nil)
			return hs.URL, nil
		}, http.StatusOK, `{
  "status": "ok",
  "store": {
    "disk": {
      "state": "ok"
    }
  }
}
`},
		{"disk degraded", func(t *testing.T) (string, func(string) string) {
			_, hs := newTestServer(t, store.Config{Dir: t.TempDir()}, reg, nil)
			if err := fault.Arm("store.disk.save", fault.Trigger{
				Mode: fault.ModeError, Err: errors.New("disk full"), Count: 1,
			}); err != nil {
				t.Fatal(err)
			}
			body(t, get(t, hs.URL+"/v1/experiments/plain/report?opt.scale=quick", nil))
			return hs.URL, nil
		}, http.StatusOK, `{
  "status": "degraded",
  "store": {
    "disk": {
      "state": "degraded",
      "reason": "save: fault: failpoint store.disk.save: disk full"
    }
  }
}
`},
		{"peer degraded", func(t *testing.T) (string, func(string) string) {
			dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusInternalServerError)
			}))
			t.Cleanup(dead.Close)
			st, err := store.New(store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cluster.New(cluster.Config{
				Self:          "a",
				Peers:         map[string]string{"a": "http://self.invalid", "b": dead.URL},
				Store:         st,
				Registry:      reg,
				ProbeInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Store: st, Registry: reg, Cluster: cl})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(func() {
				hs.Close()
				cl.Close()
				st.Close(context.Background())
			})
			for cache := uint64(4096); ; cache += 4096 {
				o := core.Options{Scale: core.ScaleQuick, CacheBytes: cache}
				if owner, _ := cl.Owner(store.KeyFor("plain", o)); owner == "b" {
					if _, ok := cl.Fill(context.Background(), store.KeyFor("plain", o), reg[0], o); ok {
						t.Fatal("Fill succeeded against a 500ing peer")
					}
					break
				}
			}
			return hs.URL, func(s string) string { return strings.ReplaceAll(s, dead.URL, "http://peer-b") }
		}, http.StatusOK, `{
  "status": "degraded",
  "store": {
    "disk": {
      "state": "off"
    }
  },
  "cluster": {
    "self": "a",
    "vnodes": 128,
    "peers": [
      {
        "id": "a",
        "addr": "http://self.invalid",
        "state": "self",
        "share": 0.5030076432685753
      },
      {
        "id": "b",
        "addr": "http://peer-b",
        "state": "degraded",
        "reason": "cluster: peer unavailable: b answered 500",
        "share": 0.4969923567314247
      }
    ]
  }
}
`},
		{"closed", func(t *testing.T) (string, func(string) string) {
			srv, hs := newTestServer(t, store.Config{Dir: t.TempDir()}, reg, nil)
			if err := srv.cfg.Store.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			return hs.URL, nil
		}, http.StatusServiceUnavailable, `{
  "status": "down",
  "store": {
    "disk": {
      "state": "ok"
    },
    "closed": true
  }
}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, scrub := tc.setup(t)
			resp := get(t, url+"/healthz", nil)
			got := body(t, resp)
			if scrub != nil {
				got = scrub(got)
			}
			if resp.StatusCode != tc.code {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.code)
			}
			if got != tc.want {
				t.Errorf("/healthz body:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
