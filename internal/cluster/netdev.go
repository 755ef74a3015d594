package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the network Device: each rank is its own OS process and
// messages travel as length-prefixed gob frames over one stream socket
// per rank pair (TCP or Unix domain), the MPJ Express "niodev" shape on
// top of the same Send/Recv/collective API as the in-process device.
//
// The simulated α+β·n cost model rides along unchanged: a frame carries
// the sender's simulated availability time as data, so per-rank clocks —
// and therefore every SimTime-based experiment — are bit-identical to an
// in-process run of the same program. What the net device adds is a real
// wall-clock story (per-process obs spans now measure actual transport)
// and worlds bigger than one address space.
//
// Wire safety: payloads cross a process boundary, so they must be
// encodable — gob-encodable concrete types, registered on both sides via
// RegisterWire (the common scalar/slice payload types are pre-registered
// below). peachyvet's `wiresafe` rule is the static gate for exactly this
// contract; a type it flags (channels, funcs, sync primitives, unexported
// fields) will fail here at runtime with a named error.

// NetConfig describes one process's membership in a multi-process world.
type NetConfig struct {
	// Size is the world size; Rank is this process's rank in [0, Size).
	Size, Rank int
	// Network is "unix" (default; race-free rendezvous via socket files)
	// or "tcp" (loopback or real machines).
	Network string
	// Addrs[r] is rank r's listen address: a socket path for "unix", a
	// host:port for "tcp". Every process must receive the same list.
	Addrs []string
	// DialTimeout bounds mesh establishment — peers may not have bound
	// their listeners yet, so dials retry until this expires (default 10s).
	DialTimeout time.Duration
}

// The PEACHY_* environment contract `peachy launch` uses to hand each
// spawned process its place in the world. OpenWorld reads it back.
const (
	envWorld = "PEACHY_WORLD"
	envRank  = "PEACHY_RANK"
	envNet   = "PEACHY_NET"
	envAddrs = "PEACHY_ADDRS"
)

// Launched reports whether this process was spawned by `peachy launch`
// (the PEACHY_RANK environment contract is present).
func Launched() bool { return os.Getenv(envRank) != "" }

// EnvNetConfig parses the PEACHY_* environment contract into a NetConfig.
// It errors if the contract is absent or malformed.
func EnvNetConfig() (NetConfig, error) {
	var cfg NetConfig
	rank, world := os.Getenv(envRank), os.Getenv(envWorld)
	if rank == "" || world == "" {
		return cfg, fmt.Errorf("cluster: not launched: %s/%s not set", envRank, envWorld)
	}
	var err error
	if cfg.Rank, err = strconv.Atoi(rank); err != nil {
		return cfg, fmt.Errorf("cluster: bad %s=%q", envRank, rank)
	}
	if cfg.Size, err = strconv.Atoi(world); err != nil {
		return cfg, fmt.Errorf("cluster: bad %s=%q", envWorld, world)
	}
	cfg.Network = os.Getenv(envNet)
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	cfg.Addrs = strings.Split(os.Getenv(envAddrs), ",")
	if len(cfg.Addrs) != cfg.Size {
		return cfg, fmt.Errorf("cluster: %s has %d addresses for world size %d", envAddrs, len(cfg.Addrs), cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return cfg, fmt.Errorf("cluster: rank %d outside world size %d", cfg.Rank, cfg.Size)
	}
	return cfg, nil
}

// OpenWorld creates the World an exhibit should run on. Normally it is an
// in-process world of `ranks` goroutine ranks. When the process was
// spawned by `peachy launch`, the PEACHY_* environment overrides the flag:
// the returned World is this process's single rank of a multi-process
// world on the net device (the same SPMD body then runs per process).
// Callers should `defer world.Close()` and gate once-per-world output on
// world.Lead().
func OpenWorld(ranks int, opts Options) (*World, error) {
	if !Launched() {
		return NewWorldOpts(ranks, opts), nil
	}
	cfg, err := EnvNetConfig()
	if err != nil {
		return nil, err
	}
	return NewNetWorld(cfg, opts)
}

// NewNetWorld joins a multi-process world: it binds this rank's listener,
// establishes one connection to every peer (lower ranks accept, higher
// ranks dial — one connection per rank pair) and returns once the full
// mesh is up, which doubles as the world's startup barrier. The returned
// World holds only the local rank; Run executes its function once, on
// that rank.
func NewNetWorld(cfg NetConfig, opts Options) (*World, error) {
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("cluster: bad net world rank %d of %d", cfg.Rank, cfg.Size)
	}
	if len(cfg.Addrs) != cfg.Size {
		return nil, fmt.Errorf("cluster: %d addresses for world size %d", len(cfg.Addrs), cfg.Size)
	}
	network := cfg.Network
	if network == "" {
		network = "unix"
	}
	if network != "unix" && network != "tcp" {
		return nil, fmt.Errorf("cluster: unsupported network %q (want unix or tcp)", network)
	}
	w := &World{size: cfg.Size, opts: opts, local: cfg.Rank}
	w.boxes = make([]*mailbox, cfg.Size)
	w.comms = make([]*Comm, cfg.Size)
	w.boxes[cfg.Rank] = newMailbox(cfg.Size)
	w.comms[cfg.Rank] = newWorldComm(w, cfg.Rank)

	d := &netDevice{
		world:   w,
		rank:    cfg.Rank,
		network: network,
		box:     w.boxes[cfg.Rank],
		conns:   make([]net.Conn, cfg.Size),
		writers: make([]*frameWriter, cfg.Size),
		state:   make([]atomic.Pointer[string], cfg.Size),
	}
	w.dev = d
	if err := d.connect(network, cfg); err != nil {
		d.close()
		return nil, err
	}
	for r, conn := range d.conns {
		if conn != nil {
			go d.readLoop(r, conn)
		}
	}
	return w, nil
}

// netDevice moves messages over one stream socket per rank pair.
type netDevice struct {
	world    *World
	rank     int
	network  string // "unix" or "tcp"
	box      *mailbox
	listener net.Listener
	conns    []net.Conn     // peer rank -> connection (nil at self)
	writers  []*frameWriter // peer rank -> framed gob encoder
	state    []atomic.Pointer[string]
	closing  atomic.Bool
	closeMu  sync.Mutex
}

// wireMsg is the on-the-wire form of message. The receiver restamps the
// local arrival seq, so seq does not travel.
type wireMsg struct {
	Src, Tag int
	Bytes    int
	Arrive   float64 // sender's simulated clock — keeps the cost model exact
	Op, Site string  // Verify stamps
	Kind     uint8
	Payload  any
}

// Payload kinds: gob cannot encode nil or struct{} (no exported fields)
// as interface values, and both are legitimate payloads (Barrier sends
// struct{}{}), so they travel as a kind tag with no payload bytes.
const (
	payloadNil uint8 = iota
	payloadEmpty
	payloadValue
)

// connect establishes the full mesh. Each pair (i, j) with i < j gets
// exactly one connection: j dials i's listener and sends a 4-byte rank
// hello; i accepts and reads it. The listener is bound before any dial,
// and dials retry while peers are still binding, so start order does not
// matter.
func (d *netDevice) connect(network string, cfg NetConfig) error {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d.rank < cfg.Size-1 { // someone will dial us
		ln, err := net.Listen(network, cfg.Addrs[d.rank])
		if err != nil {
			return fmt.Errorf("cluster: rank %d listen %s %s: %w", d.rank, network, cfg.Addrs[d.rank], err)
		}
		d.listener = ln
	}
	// Dial every lower rank. The kernel's listen backlog holds our hello
	// until the peer gets around to accepting, so dialing serially before
	// accepting cannot deadlock.
	for peer := 0; peer < d.rank; peer++ {
		conn, err := dialRetry(network, cfg.Addrs[peer], deadline)
		if err != nil {
			return fmt.Errorf("cluster: rank %d dial rank %d (%s): %w", d.rank, peer, cfg.Addrs[peer], err)
		}
		var hello [4]byte
		binary.BigEndian.PutUint32(hello[:], uint32(d.rank))
		if _, err := conn.Write(hello[:]); err != nil {
			return fmt.Errorf("cluster: rank %d hello to rank %d: %w", d.rank, peer, err)
		}
		d.attach(peer, conn)
	}
	// Accept every higher rank.
	for accepted := 0; accepted < cfg.Size-1-d.rank; accepted++ {
		switch ln := d.listener.(type) {
		case *net.TCPListener:
			ln.SetDeadline(deadline)
		case *net.UnixListener:
			ln.SetDeadline(deadline)
		}
		conn, err := d.listener.Accept()
		if err != nil {
			return fmt.Errorf("cluster: rank %d accepting peers (%d of %d connected): %w",
				d.rank, accepted, cfg.Size-1-d.rank, err)
		}
		var hello [4]byte
		conn.SetReadDeadline(deadline)
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return fmt.Errorf("cluster: rank %d reading hello: %w", d.rank, err)
		}
		conn.SetReadDeadline(time.Time{})
		peer := int(binary.BigEndian.Uint32(hello[:]))
		if peer <= d.rank || peer >= cfg.Size || d.conns[peer] != nil {
			return fmt.Errorf("cluster: rank %d got bad hello from rank %d", d.rank, peer)
		}
		d.attach(peer, conn)
	}
	// The mesh is complete; nothing else will connect.
	if d.listener != nil {
		d.listener.Close()
		d.listener = nil
	}
	return nil
}

func (d *netDevice) attach(peer int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over throughput: frames are small
	}
	d.conns[peer] = conn
	d.writers[peer] = newFrameWriter(conn, peer)
	s := "open"
	d.state[peer].Store(&s)
}

func dialRetry(network, addr string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond) // peer has not bound its listener yet
	}
}

// deliver implements Device: local delivery is a mailbox put, remote
// delivery is one frame on the peer's connection. Only the local rank's
// goroutine sends, so the writer needs no lock — which also makes it the
// place to fold the wire-level net.tx aggregate (frame count, frame
// bytes, encode+write wall time) into the rank's recorder. Wall times
// stay out of the deterministic timeline: WireSpan records counters and
// a histogram only, never a trace event.
func (d *netDevice) deliver(dst int, msg message) {
	if dst == d.rank {
		d.box.put(msg)
		return
	}
	wm := wireMsg{
		Src: msg.src, Tag: msg.tag, Bytes: msg.bytes, Arrive: msg.arrive,
		Op: msg.op, Site: msg.site, Kind: payloadValue, Payload: msg.payload,
	}
	switch msg.payload.(type) {
	case nil:
		wm.Kind, wm.Payload = payloadNil, nil
	case struct{}:
		wm.Kind, wm.Payload = payloadEmpty, nil
	}
	rec := d.world.comms[d.rank].rec // only the local rank delivers remotely
	start := rec.Now()
	frameB, err := d.writers[dst].writeMsg(&wm)
	if err != nil {
		if errors.Is(err, errFrameTooLarge) {
			panic(fmt.Sprintf("cluster: rank %d: send to rank %d refused: %v", d.rank, dst, err))
		}
		if isConnError(err) {
			panic(fmt.Sprintf(
				"cluster: rank %d: send to rank %d failed: %v — connection closed/reset, remote process likely exited or crashed",
				d.rank, dst, err))
		}
		// Not a transport failure: gob refused the payload.
		panic(fmt.Sprintf(
			"cluster: rank %d: payload %T is not wire-safe: %v — netdev payloads must be gob-encodable and registered (cluster.RegisterWire); run `go run ./cmd/peachyvet` for the static wiresafe check",
			d.rank, msg.payload, err))
	}
	rec.WireSpan("net.tx", frameB, rec.Now()-start)
}

func isConnError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || strings.Contains(err.Error(), "broken pipe") ||
		strings.Contains(err.Error(), "connection reset")
}

// readLoop decodes frames from one peer into the local mailbox. On
// connection close/reset it marks the peer down so a blocked receive
// fails with a dead-peer diagnosis instead of timing out. Each delivered
// message is stamped with its wire size and gob decode time (socket wait
// excluded — the frame is fully buffered before the decode is timed);
// the rank's goroutine folds the stamps into the recorder in recvRaw,
// keeping the recorder single-writer.
func (d *netDevice) readLoop(peer int, conn net.Conn) {
	fr := newFrameReader(conn, peer)
	dec := gob.NewDecoder(fr)
	for {
		fr.frameB = 0
		err := fr.fetch()
		var decNs int64
		var wm wireMsg
		if err == nil {
			start := time.Now()
			err = dec.Decode(&wm)
			decNs = time.Since(start).Nanoseconds()
		}
		if err != nil {
			if d.closing.Load() {
				return // normal shutdown, not a dead peer
			}
			desc := "connection reset: " + err.Error()
			switch {
			case errors.Is(err, errFrameTooLarge):
				desc = "corrupt stream: " + err.Error()
			case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
				desc = "connection closed"
			}
			s := desc
			d.state[peer].Store(&s)
			d.box.markPeerDown(peer, fmt.Errorf("rank %d: %s", peer, desc))
			return
		}
		var payload any = wm.Payload
		switch wm.Kind {
		case payloadNil:
			payload = nil
		case payloadEmpty:
			payload = struct{}{}
		}
		d.box.put(message{
			src: peer, tag: wm.Tag, payload: payload, bytes: wm.Bytes,
			arrive: wm.Arrive, op: wm.Op, site: wm.Site,
			wireB: fr.frameB, decNs: decNs,
		})
	}
}

// peerInfo implements Device for the deadlock dump: remote mailboxes are
// invisible, so report the transport state of the link instead.
func (d *netDevice) peerInfo(rank int) string {
	if rank == d.rank {
		return "local"
	}
	s := d.state[rank].Load()
	if s == nil {
		return "remote rank (never connected)"
	}
	if *s == "open" {
		return "remote rank (connection open; its mailbox state is not visible from this process)"
	}
	return "remote rank: " + *s + " — the process exited or crashed"
}

func (d *netDevice) name() string { return "net/" + d.network }

func (d *netDevice) close() error {
	d.closeMu.Lock()
	defer d.closeMu.Unlock()
	if d.closing.Swap(true) {
		return nil
	}
	if d.listener != nil {
		d.listener.Close()
	}
	for _, conn := range d.conns {
		if conn != nil {
			conn.Close()
		}
	}
	return nil
}

// maxFrame caps a frame's body on both sides of the wire, so a corrupt
// or hostile header cannot make the reader allocate up to 4 GiB. It sits
// far above any frame the suite sends: the cluster tests, the launch
// smoke and the traffic-net benchmark all pass with a 1 MiB cap.
const maxFrame = 256 << 20

// errFrameTooLarge is the error of a frame whose body exceeds the cap.
var errFrameTooLarge = errors.New("frame too large")

func frameTooLarge(dir string, peer, n, limit int) error {
	return fmt.Errorf("%w: %d-byte frame %s rank %d exceeds the %d-byte cap", errFrameTooLarge, n, dir, peer, limit)
}

// frameWriter frames each gob-encoded message with a 4-byte big-endian
// length prefix. The encoder is persistent per connection, so gob type
// descriptors cross the wire once, with the first frame that uses them.
type frameWriter struct {
	conn  io.Writer
	peer  int
	limit int // body cap: maxFrame, lowered by tests
	buf   bytes.Buffer
	enc   *gob.Encoder
	hdr   [4]byte
}

func newFrameWriter(conn io.Writer, peer int) *frameWriter {
	fw := &frameWriter{conn: conn, peer: peer, limit: maxFrame}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// writeMsg encodes m and writes it as one frame, returning the bytes put
// on the wire (header + gob body) for the sender's net.tx aggregate. A
// body over the cap is refused before anything is written.
func (fw *frameWriter) writeMsg(m *wireMsg) (int64, error) {
	fw.buf.Reset()
	if err := fw.enc.Encode(m); err != nil {
		return 0, err
	}
	if fw.buf.Len() > fw.limit {
		return 0, frameTooLarge("to", fw.peer, fw.buf.Len(), fw.limit)
	}
	binary.BigEndian.PutUint32(fw.hdr[:], uint32(fw.buf.Len()))
	if _, err := fw.conn.Write(fw.hdr[:]); err != nil {
		return 0, err
	}
	if _, err := fw.conn.Write(fw.buf.Bytes()); err != nil {
		return 0, err
	}
	return int64(len(fw.hdr) + fw.buf.Len()), nil
}

// frameReader re-assembles the framed stream for a persistent gob
// decoder. It works a whole frame at a time: fetch pulls the next frame
// off the socket into a buffer, and Read serves the decoder from that
// buffer. The split is what makes the net.rx decode timing honest — the
// socket wait happens in fetch, so the decoder's wall time measures gob
// work, not idle time waiting for a peer to send.
type frameReader struct {
	r      *bufio.Reader
	peer   int
	buf    []byte // current frame's body
	pos    int
	frameB int64 // wire bytes (headers + bodies) fetched since the last reset
}

func newFrameReader(r io.Reader, peer int) *frameReader {
	return &frameReader{r: bufio.NewReader(r), peer: peer}
}

// fetch reads one whole frame (header + body) into the buffer. A header
// over maxFrame fails before any allocation.
func (fr *frameReader) fetch() error {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return frameTooLarge("from", fr.peer, n, maxFrame)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	fr.pos = 0
	fr.frameB += int64(len(hdr) + n)
	return nil
}

func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.pos == len(fr.buf) {
		// The decoder wants bytes beyond the fetched frame — a gob
		// type-descriptor frame preceding its value. Pull the next one.
		if err := fr.fetch(); err != nil {
			return 0, err
		}
	}
	n := copy(p, fr.buf[fr.pos:])
	fr.pos += n
	return n, nil
}

// RegisterWire registers payload types for the net device's gob frames.
// Any concrete type that crosses the wire inside a message must be
// registered by both sides before the world runs: call it from an init
// function with zero values of your payload types (and, for types that
// ride Gather/Scatter/Allgather, the slice type []T too — the binomial
// trees forward segments). The common scalar and slice payloads are
// pre-registered.
func RegisterWire(vs ...any) {
	for _, v := range vs {
		gob.Register(v)
	}
}

func init() {
	// The payload vocabulary of the built-in substrates and exhibits.
	// Slices-of-slices appear because tree Gather/Scatter forward []T
	// segments of user payloads that are themselves slices.
	RegisterWire(
		int32(0), int64(0), uint64(0), float32(0),
		[]float64(nil), []float32(nil), []int(nil), []int32(nil),
		[]int64(nil), []uint64(nil), []bool(nil), []byte(nil), []string(nil),
		[][]float64(nil), [][]float32(nil), [][]int(nil), [][]int64(nil),
		[][]string(nil), [][][]float64(nil),
		splitEntry{}, []splitEntry(nil),
	)
}
