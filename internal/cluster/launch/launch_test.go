package launch

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestPlanAddrsUnix(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	addrs, cleanup, err := planAddrs("unix", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 {
		t.Fatalf("got %d addresses, want 3", len(addrs))
	}
	dir := filepath.Dir(addrs[0])
	for r, a := range addrs {
		if filepath.Dir(a) != dir {
			t.Errorf("rank %d socket %s outside the run's directory %s", r, a, dir)
		}
		if want := fmt.Sprintf("rank%d.sock", r); filepath.Base(a) != want {
			t.Errorf("rank %d socket %s, want base %s", r, a, want)
		}
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("socket directory missing before cleanup: %v", err)
	}
	cleanup()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("cleanup left %s behind (stat err %v)", dir, err)
	}
}

func TestPlanAddrsTCP(t *testing.T) {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback tcp: %v", err)
	} else {
		ln.Close()
	}
	addrs, cleanup, err := planAddrs("tcp", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	seen := map[string]bool{}
	for r, a := range addrs {
		host, port, err := net.SplitHostPort(a)
		if err != nil || host != "127.0.0.1" || port == "0" {
			t.Errorf("rank %d address %q is not a concrete loopback port", r, a)
		}
		if seen[a] {
			t.Errorf("address %s handed to two ranks", a)
		}
		seen[a] = true
	}
}

func TestPlanAddrsRejectsUnknownNetwork(t *testing.T) {
	addrs, cleanup, err := planAddrs("udp", 2)
	if err == nil || !strings.Contains(err.Error(), "unsupported network") {
		t.Fatalf("planAddrs(udp) = %v, %v; want an unsupported-network error", addrs, err)
	}
	cleanup() // a no-op, but it must be callable on the error path
}

func TestCopyLines(t *testing.T) {
	cases := []struct {
		name, in, prefix, want string
	}{
		{"prefixed", "a\nb\n", "[1] ", "[1] a\n[1] b\n"},
		{"unprefixed", "a\nb\n", "", "a\nb\n"},
		{"unterminated tail kept whole", "a\ntail", "[0] ", "[0] a\n[0] tail\n"},
		{"empty lines kept", "\n\nx\n", "> ", "> \n> \n> x\n"},
		{"empty stream", "", "[0] ", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			var wg sync.WaitGroup
			var mu sync.Mutex
			wg.Add(1)
			copyLines(&wg, &mu, &out, strings.NewReader(tc.in), tc.prefix)
			wg.Wait()
			if out.String() != tc.want {
				t.Errorf("copyLines(%q, %q) wrote %q, want %q", tc.in, tc.prefix, out.String(), tc.want)
			}
		})
	}
}
