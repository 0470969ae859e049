package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"inlinec/internal/profdb"
)

// FuzzIngest drives POST /ingest in-process with arbitrary bodies, over
// a database that already holds one record. Every body must get 200,
// 400 or 409 without a panic; a rejected body must leave the database
// byte-identical; an accepted one must be served back by GET /profile
// as a snapshot that re-parses.
func FuzzIngest(f *testing.F) {
	validSnap := "ILPROFSNAP 1\nprogram p.c\nfingerprint aaaa000011112222\ngen 3\nruns 2\nil 100\nfunc main 2\nsite main work 0 00ff00ff 50\n"
	seeds := []string{
		validSnap,
		validSnap + "target main work 0 00ff00ff work 30\ntarget main work 0 00ff00ff other 20\n",
		validSnap + "target main work 0 00ff00ff work 30\ntarget main work 0 00ff00ff work 1\n", // duplicate target
		strings.Replace(validSnap, "fingerprint aaaa000011112222\n", "", 1),                     // fingerprint required
		strings.Replace(validSnap, "program p.c", "program q.c", 1),                             // another program
		strings.Replace(validSnap, "program p.c\n", "", 1),                                      // no program named
		validSnap + "gen 4\n", // duplicate directive
		"ILPROFSNAP 1\nprogram p.c\nfingerprint f\ngen 0\nruns 1\nsite a b 0 00000000 1\nsite a b 0 00000000 2\n", // duplicate site
		"ILPROFDB 1\nprogram p.c\n",
		"",
		strings.Replace(validSnap, "gen 3", "gen -9223372036854775808", 1),  // negative generation: its age overflowed the merge's decay
		strings.Replace(validSnap, "runs 2", "runs 9223372036854775807", 1), // merged run count past the int64 range
	}
	for _, s := range seeds {
		f.Add(s)
	}
	held := profdb.NewRecord("bbbb000011112222", 1)
	held.Runs, held.IL = 3, 90
	held.Funcs["main"] = 3
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<16 {
			t.Skip()
		}
		db := profdb.NewDB("p.c")
		if err := db.Ingest(held); err != nil {
			t.Fatal(err)
		}
		n := newNode(db, 0)
		n.Start()
		var before bytes.Buffer
		if _, err := n.DB().WriteTo(&before); err != nil {
			t.Fatal(err)
		}
		h := n.Handler()
		post := httptest.NewRecorder()
		h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		var served *httptest.ResponseRecorder
		if post.Code == http.StatusOK {
			_, rec, err := profdb.ReadSnapshot(strings.NewReader(body))
			if err != nil {
				t.Fatalf("accepted body does not parse: %v", err)
			}
			served = httptest.NewRecorder()
			q := url.Values{"fingerprint": {rec.Fingerprint}}
			h.ServeHTTP(served, httptest.NewRequest(http.MethodGet, "/profile?"+q.Encode(), nil))
		}
		if err := n.Stop(); err != nil {
			t.Fatal(err)
		}

		switch post.Code {
		case http.StatusOK:
			if served.Code != http.StatusOK {
				t.Fatalf("accepted body not served back: GET /profile status %d: %s", served.Code, served.Body)
			}
			if _, _, err := profdb.ReadSnapshot(served.Body); err != nil {
				t.Fatalf("served profile does not re-parse: %v", err)
			}
		case http.StatusBadRequest, http.StatusConflict:
			var after bytes.Buffer
			if _, err := n.DB().WriteTo(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("rejected body (status %d) changed the database:\n%s\nvs\n%s", post.Code, before.String(), after.String())
			}
		default:
			t.Fatalf("POST /ingest status %d, want 200, 400 or 409: %s", post.Code, post.Body)
		}
	})
}
