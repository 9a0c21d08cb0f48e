package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle/mutate"
	"netlistre/internal/server"
)

// The service-mix workload: an in-process revand behind a real loopback
// listener, driven in a closed loop by two clients (one per CPU). The
// uploader posts netlists to /v1/analyze — seeded noise variants, which
// are cold, each followed by copies of the same text with its lines
// reordered, which the report cache answers by fingerprint. (Renamed
// copies would miss: the fingerprint covers net names by design.) The
// analyst works on two sessions bound during set-up. Each round it walks
// every session through the exploration sequence of the revand session
// smoke test — list blocks, expand one block, list ports, one bounded
// cone query, a re-run with unchanged options (replayed from the stage
// store) — plus a word listing, and diffs one of the four labeled trojan
// pairs, as the smoke test ends with a diff.
//
// The clients only send, time and record during the timed phase; every
// response is checked after it, so the checks cost the figures nothing.

const (
	// coldNoise is the electrical-noise density of the cold uploads; it
	// makes every upload a new structure without changing its size much.
	coldNoise = 0.05
	// hitsPerCold line-reordered copies follow each cold upload. The
	// share is an assumption, not a measured usage: two in three uploads
	// are answered from the report cache.
	hitsPerCold = 2
	// coldPerSecond and roundsPerSecond size the two clients' lists from
	// --seconds so both finish at about the same time on a 2-CPU host:
	// reads then run beside analyses for the whole phase.
	coldPerSecond   = 6.0
	roundsPerSecond = 15.0
)

var (
	coldDesigns    = []string{"usb", "evoter", "msp430", "aemb", "usb-lut", "evoter-lut"}
	sessionDesigns = []string{"evoter", "usb"}
	workersOne     = server.RequestOptions{Workers: 1}
)

// keep says how much of a response body a client holds for the checks
// that run after the timed phase.
type keep int

const (
	keepHash  keep = iota // a hash of the body only
	keepBody              // the whole body
	keepTrace             // the body without its report: a rerun's trace
)

// request is one entry of a client's fixed list.
type request struct {
	method, path string
	body         []byte
	class        string // "op" (cold analysis), "hit" or "query"
	route        string
	elems        int // elements of the netlist the request analyzes
	keep         keep
	// check verifies the response after the timed phase.
	check func(r *response) error
}

// response is what a client records of one answer during the timed phase.
type response struct {
	err               error
	lat               time.Duration
	status            int
	xCache, xDegraded string
	sum               uint64 // maphash of the whole body
	body              []byte // what the request's keep asks for
}

// hashSeed is the one maphash seed of the run, so equal bodies hash equal.
var hashSeed = maphash.MakeSeed()

// reportField starts the top-level report of a rerun answer, which the
// server writes with two-space indentation after the trace.
var reportField = []byte(",\n  \"report\":")

type diffPair struct {
	name             string
	golden, suspect  string // Verilog text
	wantAdded        map[string]bool
	goldenNL, suspNL *netlist.Netlist
}

type sessionInput struct {
	text string
	nl   *netlist.Netlist // the benchmark's own parse, for cone checks
}

type serviceInputs struct {
	cold     []string // cold upload texts
	coldNL   []*netlist.Netlist
	hits     [][]string // hits[i] repeat cold[i]
	sessions []sessionInput
	pairs    []diffPair
}

// shuffleBody returns the text with its wire, gate and assign lines in a
// seeded random order: the same netlist written in another order, so the
// same fingerprint.
func shuffleBody(text string, rng *rand.Rand) string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	var head, body []string
	for _, l := range lines[:len(lines)-1] { // the last line is endmodule
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "module ") || strings.HasPrefix(t, "input ") || strings.HasPrefix(t, "output ") {
			head = append(head, l)
		} else {
			body = append(body, l)
		}
	}
	rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	return strings.Join(append(append(head, body...), lines[len(lines)-1]), "\n") + "\n"
}

func serviceInputsFor(seed int64, colds int) (*serviceInputs, error) {
	reorder, err := mutate.Named("reorder")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 2000)))
	in := &serviceInputs{}
	for i := 0; i < colds; i++ {
		base, _, err := gen.LabeledArticle(coldDesigns[i%len(coldDesigns)])
		if err != nil {
			return nil, err
		}
		v := gen.AddElectricalNoise(base, subSeed(seed, 1000+i), coldNoise)
		text, err := verilogText(v)
		if err != nil {
			return nil, err
		}
		parsed, err := parseValidate(text)
		if err != nil {
			return nil, err
		}
		in.cold = append(in.cold, text)
		in.coldNL = append(in.coldNL, parsed)
		var hits []string
		for h := 0; h < hitsPerCold; h++ {
			hits = append(hits, shuffleBody(text, rng))
		}
		in.hits = append(in.hits, hits)
	}
	designs, err := mutatedArticles(sessionDesigns, seed, 0)
	if err != nil {
		return nil, err
	}
	for _, d := range designs {
		nl, err := parseValidate(d.text)
		if err != nil {
			return nil, err
		}
		in.sessions = append(in.sessions, sessionInput{text: d.text, nl: nl})
	}
	for i, p := range gen.TrojanArticlePairs() {
		g, glab, err := gen.LabeledArticle(p[0])
		if err != nil {
			return nil, err
		}
		s, slab, err := gen.LabeledArticle(p[1])
		if err != nil {
			return nil, err
		}
		mg, err := reorder.Apply(g, glab, subSeed(seed, 3000+2*i))
		if err != nil {
			return nil, err
		}
		ms, err := reorder.Apply(s, slab, subSeed(seed, 3001+2*i))
		if err != nil {
			return nil, err
		}
		dp := diffPair{name: p[1], wantAdded: map[string]bool{}}
		for _, id := range ms.Labels.Trojan {
			dp.wantAdded[ms.Netlist.NameOf(id)] = true
		}
		if dp.golden, err = verilogText(mg.Netlist); err != nil {
			return nil, err
		}
		if dp.suspect, err = verilogText(ms.Netlist); err != nil {
			return nil, err
		}
		if dp.goldenNL, err = parseValidate(dp.golden); err != nil {
			return nil, err
		}
		if dp.suspNL, err = parseValidate(dp.suspect); err != nil {
			return nil, err
		}
		in.pairs = append(in.pairs, dp)
	}
	return in, nil
}

// client is one closed-loop HTTP client with its own connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// call sends a request that must answer with status want and decodes the
// JSON body into out (when non-nil).
func (c *client) call(method, path string, body any, want int, out any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	status, _, data, err := c.do(method, path, b)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, firstLine(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// service is one running server with its bound sessions.
type service struct {
	srv      *server.Server
	hs       *http.Server
	served   chan error
	base     string
	setup    *client
	sessions []string // session ids, parallel to serviceInputs.sessions
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// startService starts a server on a loopback port and binds the
// sessions: each session design goes through POST /v1/jobs, then a
// session is created from the done job; the first session also receives
// both netlists of every trojan pair as named revisions.
func startService(in *serviceInputs) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    server.New(server.Config{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.setup = newClient(s.base)
	for _, si := range in.sessions {
		id, err := s.bind(si.text)
		if err != nil {
			s.close()
			return nil, err
		}
		s.sessions = append(s.sessions, id)
	}
	for i, p := range in.pairs {
		for j, text := range []string{p.golden, p.suspect} {
			path := fmt.Sprintf("/v1/sessions/%s/revisions/%s", s.sessions[0], revName(i, j))
			req := server.AnalyzeRequest{Verilog: text, Options: workersOne}
			if err := s.setup.call("POST", path, req, http.StatusCreated, nil); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func revName(pair, side int) string { return fmt.Sprintf("%c%d", "gs"[side], pair) }

func (s *service) bind(text string) (string, error) {
	var job server.JobStatus
	req := server.AnalyzeRequest{Verilog: text, Options: workersOne}
	if err := s.setup.call("POST", "/v1/jobs", req, http.StatusAccepted, &job); err != nil {
		return "", err
	}
	for job.Status != server.JobDone {
		switch job.Status {
		case server.JobQueued, server.JobRunning:
		default:
			return "", fmt.Errorf("set-up job %s ended %s: %s", job.ID, job.Status, job.Error)
		}
		time.Sleep(time.Millisecond)
		if err := s.setup.call("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return "", err
		}
	}
	var sess server.SessionStatus
	err := s.setup.call("POST", "/v1/sessions", server.CreateSessionRequest{JobID: job.ID}, http.StatusCreated, &sess)
	return sess.ID, err
}

// close stops the listener, drains the server and waits for Serve to end.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a listener that fails to drain only delays exit
	_ = s.srv.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve ended: %v\n", err)
	}
	s.setup.hc.CloseIdleConnections()
}

// metricsSnapshot reads the counters of /metrics the per-layer figures use.
func (s *service) metricsSnapshot() (map[string]float64, error) {
	status, _, data, err := s.setup.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// reportSummary is the part of a JSON report the checks read.
type reportSummary struct {
	TotalElements int  `json:"total_elements"`
	Degraded      bool `json:"degraded"`
	Coverage      struct {
		AfterElements int `json:"after_elements"`
	} `json:"coverage"`
	RuntimeMS float64 `json:"runtime_ms"`
	Trace     []struct {
		Name       string  `json:"name"`
		DurationMS float64 `json:"duration_ms"`
		Modules    int     `json:"modules"`
		Status     string  `json:"status"`
	} `json:"trace"`
}

// uploaderList is the uploader's fixed list: each cold upload, then its
// line-reordered copies. A copy must be answered from the report cache with
// exactly the bytes of the cold answer. The checks run in list order, so a
// cold answer is checked, and its summary and hash stored, before its
// copies.
func uploaderList(in *serviceInputs, coldReports []reportSummary) []request {
	var list []request
	coldSums := make([]uint64, len(in.cold))
	for i := range in.cold {
		i := i
		elems := elementsOf(in.coldNL[i])
		list = append(list, request{
			method: "POST", path: "/v1/analyze", class: "op", route: "analyze", elems: elems, keep: keepBody,
			body: mustJSON(server.AnalyzeRequest{Verilog: in.cold[i], Options: workersOne}),
			check: func(r *response) error {
				if r.status != http.StatusOK || r.xCache != "MISS" || r.xDegraded != "" {
					return fmt.Errorf("cold upload %d: status %d X-Cache %q X-Degraded %q: %s",
						i, r.status, r.xCache, r.xDegraded, firstLine(r.body))
				}
				var rep reportSummary
				if err := json.Unmarshal(r.body, &rep); err != nil {
					return fmt.Errorf("cold upload %d: %v", i, err)
				}
				if rep.Degraded || rep.TotalElements != elems {
					return fmt.Errorf("cold upload %d: degraded %t, %d elements, want %d", i, rep.Degraded, rep.TotalElements, elems)
				}
				coldReports[i] = rep
				coldSums[i] = r.sum
				return nil
			},
		})
		for h, text := range in.hits[i] {
			h := h
			list = append(list, request{
				method: "POST", path: "/v1/analyze", class: "hit", route: "analyze_hit", elems: elems,
				body: mustJSON(server.AnalyzeRequest{Verilog: text, Options: workersOne}),
				check: func(r *response) error {
					if r.status != http.StatusOK || r.xCache != "HIT" {
						return fmt.Errorf("repeat %d of upload %d: status %d X-Cache %q, want a cache hit",
							h, i, r.status, r.xCache)
					}
					if r.sum != coldSums[i] {
						return fmt.Errorf("repeat %d of upload %d: cached report differs from the cold one", h, i)
					}
					return nil
				},
			})
		}
	}
	return list
}

// coneSpec is one bounded cone query on a session netlist.
type coneSpec struct {
	session      int
	root         netlist.ID
	dir          netlist.ConeDirection
	depth, limit int
}

func randomCone(nl *netlist.Netlist, session int, rng *rand.Rand) coneSpec {
	c := coneSpec{session: session, dir: netlist.Fanin, depth: 3 + rng.Intn(4), limit: 200}
	for {
		c.root = netlist.ID(rng.Intn(nl.Len()))
		if k := nl.Kind(c.root); k != netlist.Input && k != netlist.Const0 && k != netlist.Const1 {
			break
		}
	}
	if rng.Intn(2) == 1 {
		c.dir = netlist.Fanout
	}
	return c
}

func (c coneSpec) query(nl *netlist.Netlist) string {
	return url.Values{"net": {nl.NameOf(c.root)}, "dir": {c.dir.String()},
		"depth": {strconv.Itoa(c.depth)}, "limit": {strconv.Itoa(c.limit)}}.Encode()
}

// check compares a cone answer with the benchmark's own BoundedCone on its
// parse of the same text, whose node ids match the server's.
func (c coneSpec) check(nl *netlist.Netlist, r *response) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("cone: status %d: %s", r.status, firstLine(r.body))
	}
	var got server.ConeResponse
	if err := json.Unmarshal(r.body, &got); err != nil {
		return err
	}
	want := nl.BoundedCone(c.root, c.dir, c.depth, c.limit)
	if len(got.Nodes) != len(want.Nodes) || got.TruncatedSize != want.TruncatedSize ||
		got.TruncatedDepth != want.TruncatedDepth {
		return fmt.Errorf("cone of %s: %d nodes, want %d", nl.NameOf(c.root), len(got.Nodes), len(want.Nodes))
	}
	for i, n := range got.Nodes {
		if netlist.ID(n.ID) != want.Nodes[i].ID || n.Depth != want.Nodes[i].Depth {
			return fmt.Errorf("cone of %s differs at node %d", nl.NameOf(c.root), i)
		}
	}
	return nil
}

// analystList is the analyst's fixed list over the bound sessions.
func analystList(in *serviceInputs, svc *service, rounds int, seed int64, blocks []int) ([]request, []coneSpec) {
	rng := rand.New(rand.NewSource(subSeed(seed, 4000)))
	var list []request
	var cones []coneSpec
	firstSums := map[string]uint64{}
	read := func(path, route string) request {
		return request{method: "GET", path: path, class: "query", route: route,
			check: func(r *response) error {
				if r.status != http.StatusOK {
					return fmt.Errorf("GET %s: status %d", path, r.status)
				}
				if first, ok := firstSums[path]; !ok {
					firstSums[path] = r.sum
				} else if r.sum != first {
					return fmt.Errorf("GET %s: answer changed between identical reads", path)
				}
				return nil
			}}
	}
	for r := 0; r < rounds; r++ {
		for s, id := range svc.sessions {
			nl := in.sessions[s].nl
			base := "/v1/sessions/" + id
			cs := randomCone(nl, s, rng)
			cones = append(cones, cs)
			list = append(list,
				read(base+"/blocks", "blocks"),
				read(fmt.Sprintf("%s/blocks/%d", base, (r*7+s)%blocks[s]), "blocks"),
				read(base+"/words", "words"),
				read(base+"/ports", "ports"),
				request{method: "GET", path: base + "/cone?" + cs.query(nl), class: "query", route: "cone", keep: keepBody,
					check: func(r *response) error { return cs.check(nl, r) }},
				request{method: "POST", path: base + "/rerun", class: "hit", route: "rerun", keep: keepTrace,
					elems: elementsOf(nl), body: mustJSON(workersOne), check: checkRerun})
		}
		pi := r % len(in.pairs)
		p := in.pairs[pi]
		list = append(list, request{method: "POST", path: "/v1/sessions/" + svc.sessions[0] + "/diff",
			class: "query", route: "diff", keep: keepBody,
			body:  mustJSON(server.DiffRequest{Golden: revName(pi, 0), Suspect: revName(pi, 1)}),
			check: func(r *response) error { return checkDiff(p, r) }})
	}
	return list, cones
}

// checkRerun requires every stage of a re-run with unchanged options to
// be replayed from the stage store.
func checkRerun(r *response) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("rerun: status %d: %s", r.status, firstLine(r.body))
	}
	var rr struct {
		Degraded bool `json:"degraded"`
		Trace    []struct {
			Stage      string `json:"stage"`
			Provenance string `json:"provenance"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(r.body, &rr); err != nil {
		return fmt.Errorf("rerun: %v", err)
	}
	if rr.Degraded || len(rr.Trace) == 0 {
		return fmt.Errorf("rerun: degraded %t, %d stages", rr.Degraded, len(rr.Trace))
	}
	for _, st := range rr.Trace {
		if st.Provenance != "cached" {
			return fmt.Errorf("rerun: stage %s %s, want cached", st.Stage, st.Provenance)
		}
	}
	return nil
}

// checkDiff requires the diff to return exactly the injected gate set.
func checkDiff(p diffPair, r *response) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("diff %s: status %d: %s", p.name, r.status, firstLine(r.body))
	}
	var d server.DiffResponse
	if err := json.Unmarshal(r.body, &d); err != nil {
		return fmt.Errorf("diff %s: %v", p.name, err)
	}
	if len(d.Removed) > 0 || len(d.Retyped) > 0 {
		return fmt.Errorf("diff %s: %d removed, %d retyped; the trojan only adds logic", p.name, len(d.Removed), len(d.Retyped))
	}
	if len(d.Added) != len(p.wantAdded) {
		return fmt.Errorf("diff %s: %d added, want the %d injected gates", p.name, len(d.Added), len(p.wantAdded))
	}
	for _, n := range d.Added {
		if !p.wantAdded[n.Name] {
			return fmt.Errorf("diff %s: added %s is not an injected gate", p.name, n.Name)
		}
	}
	return nil
}

// replay sends one list in a closed loop and records each answer; it
// checks nothing, so the timed phase holds only the clients' own work.
func replay(c *client, list []request, tr *tracer, thread int) ([]response, time.Duration) {
	out := make([]response, len(list))
	begin := time.Now()
	for i, rq := range list {
		sp := tr.begin("server."+rq.route, 0, i, thread)
		start := time.Now()
		status, hdr, body, err := c.do(rq.method, rq.path, rq.body)
		out[i].lat = time.Since(start)
		tr.end(sp)
		r := &out[i]
		if r.err = err; err != nil {
			continue
		}
		r.status, r.xCache, r.xDegraded = status, hdr.Get("X-Cache"), hdr.Get("X-Degraded")
		r.sum = maphash.Bytes(hashSeed, body)
		switch {
		case rq.keep == keepBody || status != http.StatusOK:
			r.body = body
		case rq.keep == keepTrace:
			if i := bytes.Index(body, reportField); i >= 0 {
				r.body = append(append([]byte(nil), body[:i]...), "\n}"...)
			} else {
				r.body = body
			}
		}
	}
	return out, time.Since(begin)
}

func runService(seed int64, secs int, tr *tracer) (*result, error) {
	colds := int(float64(secs)*coldPerSecond + 0.5)
	rounds := int(float64(secs)*roundsPerSecond + 0.5)
	if colds < 1 {
		colds = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	in, err := serviceInputsFor(seed, colds)
	if err != nil {
		return nil, err
	}

	// Set-up starts a fresh server and binds the sessions; each timed
	// repetition's server is closed again, and the timed phase gets a
	// server of its own.
	res := newResult()
	var rep *service
	su := &setupRuns{
		once: func() (err error) {
			rep, err = startService(in)
			return err
		},
		tidy: func() { rep.close() },
	}
	if err := su.due(0, 1); err != nil {
		return nil, err
	}
	svc, err := startService(in)
	if err != nil {
		return nil, err
	}
	defer svc.close()

	blocks := make([]int, len(svc.sessions))
	for s, id := range svc.sessions {
		var list struct {
			Blocks []server.BlockSummary `json:"blocks"`
		}
		if err := svc.setup.call("GET", "/v1/sessions/"+id+"/blocks", nil, http.StatusOK, &list); err != nil {
			return nil, err
		}
		if len(list.Blocks) == 0 {
			return nil, fmt.Errorf("session %s has no blocks", sessionDesigns[s])
		}
		blocks[s] = len(list.Blocks)
	}
	coldReports := make([]reportSummary, len(in.cold))
	analyst, cones := analystList(in, svc, rounds, seed, blocks)
	lists := [][]request{uploaderList(in, coldReports), analyst}
	before, err := svc.metricsSnapshot()
	if err != nil {
		return nil, err
	}

	resps := make([][]response, len(lists))
	walls := make([]time.Duration, len(lists))
	var ph phase
	settle()
	peak := startHeapPeak()
	peak.release()
	ph.resume()
	var wg sync.WaitGroup
	for i, list := range lists {
		wg.Add(1)
		go func(i int, list []request) {
			defer wg.Done()
			c := newClient(svc.base)
			defer c.hc.CloseIdleConnections()
			resps[i], walls[i] = replay(c, list, tr, i+1)
		}(i, list)
	}
	wg.Wait()
	ph.pause()
	res.e2e["peak_heap_mib"] = peak.finish()

	after, err := svc.metricsSnapshot()
	if err != nil {
		return nil, err
	}
	if err := su.due(1, 1); err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(su.times)
	// The checks, after the phase and in list order.
	byClass := map[string][]float64{}
	byRoute := map[string][]float64{}
	classTime := map[string]time.Duration{}
	elems, held := 0, 0
	for i, list := range lists {
		for j, rq := range list {
			r := &resps[i][j]
			res.attempted++
			held += len(r.body)
			err := r.err
			if err == nil {
				err = rq.check(r)
			}
			if err != nil {
				res.fail(new(bool), "%v", err)
				continue
			}
			byClass[rq.class] = append(byClass[rq.class], r.lat.Seconds())
			byRoute[rq.route] = append(byRoute[rq.route], millis(r.lat))
			classTime[rq.class] += r.lat
			elems += rq.elems
		}
	}
	n := float64(res.attempted)
	res.infof("timed phase %.3f s wall, %.3f s CPU; uploader done after %.3f s, analyst after %.3f s",
		ph.wall.Seconds(), ph.cpu.Seconds(), walls[0].Seconds(), walls[1].Seconds())
	res.e2e["elems_per_s"] = float64(elems) / ph.wall.Seconds()
	res.e2e["cpu_s_per_op"] = ph.cpu.Seconds() / n
	res.e2e["alloc_mib_per_op"] = mib(ph.alloc) / n
	covered, total := 0, 0
	for _, rep := range coldReports {
		covered += rep.Coverage.AfterElements
		total += rep.TotalElements
	}
	res.e2e["coverage_frac"] = float64(covered) / float64(total)

	res.infof("requests %d: uploader %d (%d cold, %d repeats), analyst %d over %d sessions, 2 clients, workers 1",
		res.attempted, len(lists[0]), len(in.cold), len(lists[0])-len(in.cold), len(lists[1]), len(svc.sessions))
	res.infof("response bytes held for the checks: %.1f MiB", mib(uint64(held)))
	var clientTime time.Duration
	for _, d := range classTime {
		clientTime += d
	}
	for _, c := range []string{"op", "hit", "query"} {
		res.infof("class %-5s %5.1f%% of requests, %5.1f%% of client time", c,
			100*float64(len(byClass[c]))/n, 100*classTime[c].Seconds()/clientTime.Seconds())
	}
	classLine(res, "op", "s", byClass["op"], 1)
	classLine(res, "hit", "ms", byClass["hit"], 1000)
	classLine(res, "query", "ms", byClass["query"], 1000)

	if tr != nil {
		for _, rt := range []string{"analyze", "analyze_hit", "rerun", "blocks", "cone", "diff"} {
			res.layer["server."+rt+"_ms"] = p50(byRoute[rt])
		}
		delta := func(k string) float64 { return after[k] - before[k] }
		res.layer["server.cache_hit_ratio"] = ratio(delta("revand_cache_hits_total"),
			delta("revand_cache_hits_total")+delta("revand_cache_misses_total"))
		res.layer["server.stagecache_hit_ratio"] = ratio(delta("revand_stagecache_hits_total"),
			delta("revand_stagecache_hits_total")+delta("revand_stagecache_misses_total"))
		res.layer["server.cache_evictions"] = delta("revand_cache_evictions_total") / n
		var analyze, stages float64
		for _, rep := range coldReports {
			analyze += rep.RuntimeMS / 1000
			for _, st := range rep.Trace {
				stages += st.DurationMS / 1000
				tr.addStage(st.Name, time.Duration(st.DurationMS*float64(time.Millisecond)), 0, st.Modules,
					st.Status != "" && st.Status != "ok")
			}
		}
		fillStageLayers(res, tr, res.attempted)
		res.layer["core.analyze_s"] = analyze / n
		res.layer["core.overhead_s"] = (analyze - stages) / n
		replayNetlistCalls(res, in, cones)
		fillTraceOverhead(res, tr, &ph, res.attempted)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// classLine prints a latency class's median and tail in the given unit.
func classLine(res *result, class, unit string, secs []float64, scale float64) {
	if len(secs) == 0 {
		return
	}
	line := fmt.Sprintf("%s_p50_%s %.4g (%d samples)", class, unit, p50(secs)*scale, len(secs))
	if v, p, ok := tail(secs); ok {
		line += fmt.Sprintf(", %s_tail_%s %.4g at p%g", class, unit, v*scale, p)
	} else {
		line += ", no tail: fewer than ten samples beyond p90"
	}
	res.infof("%s", line)
}

// replayNetlistCalls times, in process, the netlist-layer calls the
// service makes for this workload's requests — parse and fingerprint of
// each upload, each cone query, each trojan diff — once per distinct call,
// so route latencies can be split into layer time and serving overhead.
func replayNetlistCalls(res *result, in *serviceInputs, cones []coneSpec) {
	var parse, fp time.Duration
	uploads := 0
	for i, text := range in.cold {
		for _, t := range append([]string{text}, in.hits[i]...) {
			start := time.Now()
			nl, err := parseValidate(t)
			parse += time.Since(start)
			if err != nil {
				continue
			}
			start = time.Now()
			nl.Fingerprint()
			fp += time.Since(start)
			uploads++
		}
	}
	res.layer["netlist.parse_s"] = parse.Seconds() / float64(uploads)
	res.layer["netlist.fingerprint_s"] = fp.Seconds() / float64(uploads)

	var cone time.Duration
	for _, c := range cones {
		nl := in.sessions[c.session].nl
		start := time.Now()
		nl.BoundedCone(c.root, c.dir, c.depth, c.limit)
		cone += time.Since(start)
	}
	res.layer["netlist.cone_ms"] = millis(cone) / float64(len(cones))

	var diff time.Duration
	for _, p := range in.pairs {
		start := time.Now()
		netlist.DiffNetlists(p.goldenNL, p.suspNL, netlist.DiffOptions{})
		diff += time.Since(start)
	}
	res.layer["netlist.diff_ms"] = millis(diff) / float64(len(in.pairs))
}
