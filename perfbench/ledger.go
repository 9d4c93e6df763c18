package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU ledger splits a runtime/pprof CPU profile into one line per
// layer. Every sample lands on exactly one ledger line, so the lines sum
// to the profile total:
//
//   - the innermost repository frame on the stack owns the sample, with
//     the standard-library and runtime callees below it;
//   - samples owned by cryptoutil are split by primitive (the first
//     recognised stdlib entry point below the cryptoutil frame), and are
//     also credited to the nearest non-cryptoutil repository frame above
//     it on the *.crypto_s lines, which are a second view of the same
//     time and are not added to the total;
//   - the benchmark's own frames (package main) are the harness;
//   - stacks with no repository frame are GC background work or other
//     runtime time.

const repoPrefix = "p2pdrm/internal/"

// layerOf maps a repository package to the ledger layer it is billed to;
// packages not listed fall under repo.other_s.
var layerOf = map[string]string{
	"sim":        "sim",
	"exp":        "exp",
	"simnet":     "simnet",
	"geo":        "simnet",
	"svc":        "svc",
	"usermgr":    "usermgr",
	"accountmgr": "usermgr",
	"channelmgr": "channelmgr",
	"policy":     "channelmgr",
	"policymgr":  "channelmgr",
	"attr":       "channelmgr",
	"p2p":        "p2p",
	"keys":       "p2p",
	"chserver":   "p2p",
	"wire":       "wire",
	"client":     "client",
	"feedback":   "client",
	"obs":        "obs",
	"ticket":     "ticket",
	"lru":        "ticket",
	"workload":   "harness",
	"conform":    "harness",
}

// cryptoOwners are the layers with their own *.crypto_s line; crypto
// called from anywhere else is other.crypto_s.
var cryptoOwners = []string{"ticket", "usermgr", "channelmgr", "p2p", "client"}

// primitives classify a callee frame below cryptoutil, by function-name
// prefix; the first frame (outermost first) that matches decides.
var primitives = []struct{ prefix, line string }{
	{"crypto/ed25519.Verify", "ed25519_verify"},
	{"crypto/internal/fips140/ed25519.verify", "ed25519_verify"},
	{"crypto/ed25519.Sign", "ed25519_sign"},
	{"crypto/ed25519.PrivateKey.Sign", "ed25519_sign"},
	{"crypto/internal/fips140/ed25519.sign", "ed25519_sign"},
	{"crypto/ecdh.", "x25519"},
	{"crypto/internal/fips140/ecdh.", "x25519"},
	{"crypto/cipher.", "aead"},
	{"crypto/aes.", "aead"},
	{"crypto/internal/fips140/aes", "aead"},
	{"golang.org/x/crypto/chacha20poly1305", "aead"},
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// ledgerLines are the additive lines, in print order; they sum to
// cpu.total_s.
var ledgerLines = []string{
	"cryptoutil.ed25519_verify_s", "cryptoutil.ed25519_sign_s", "cryptoutil.x25519_s",
	"cryptoutil.aead_s", "cryptoutil.other_s",
	"ticket.cpu_s", "sim.cpu_s", "exp.cpu_s", "simnet.cpu_s", "svc.cpu_s",
	"usermgr.cpu_s", "channelmgr.cpu_s", "p2p.cpu_s", "wire.cpu_s", "client.cpu_s",
	"obs.cpu_s", "repo.other_s", "gc.cpu_s", "runtime.other_s", "harness.cpu_s",
}

// repoPkg names the repository package a frame belongs to: an internal
// package name, "main" for the benchmark itself (named by its import
// path when compiled into a test binary), or "" for the rest.
func repoPkg(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "p2pdrm/perfbench.") {
		return "main"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

func layerLine(pkg string) string {
	layer, ok := layerOf[pkg]
	switch {
	case pkg == "main" || layer == "harness":
		return "harness.cpu_s"
	case !ok:
		return "repo.other_s"
	}
	return layer + ".cpu_s"
}

// attribute bills one stack (frames leaf first) to its ledger line and,
// for crypto, to the owning layer's *.crypto_s line ("" otherwise).
func attribute(frames []string) (line, crypto string) {
	for i, fn := range frames {
		pkg := repoPkg(fn)
		if pkg == "" {
			continue
		}
		if pkg != "cryptoutil" {
			return layerLine(pkg), ""
		}
		line = "cryptoutil.other_s"
	callee:
		for j := i - 1; j >= 0; j-- {
			for _, p := range primitives {
				if strings.HasPrefix(frames[j], p.prefix) {
					line = "cryptoutil." + p.line + "_s"
					break callee
				}
			}
		}
		crypto = "other.crypto_s"
		for _, caller := range frames[i+1:] {
			owner := repoPkg(caller)
			if owner == "" || owner == "cryptoutil" {
				continue
			}
			for _, l := range cryptoOwners {
				if layerOf[owner] == l {
					crypto = l + ".crypto_s"
				}
			}
			break
		}
		return line, crypto
	}
	for _, fn := range frames {
		for _, r := range gcRoots {
			if fn == r {
				return "gc.cpu_s", ""
			}
		}
	}
	return "runtime.other_s", ""
}

// ledger is the per-line CPU time of one profile, in nanoseconds.
type ledger struct {
	lines  map[string]int64
	crypto map[string]int64
	total  int64
}

// buildLedger decodes a gzip-compressed CPU profile and bills every
// sample.
func buildLedger(gz []byte) (*ledger, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	l := &ledger{lines: make(map[string]int64), crypto: make(map[string]int64)}
	for _, s := range samples {
		line, crypto := attribute(s.frames)
		l.lines[line] += s.cpuNS
		if crypto != "" {
			l.crypto[crypto] += s.cpuNS
		}
		l.total += s.cpuNS
	}
	var sum int64
	for _, v := range l.lines {
		sum += v
	}
	if sum != l.total {
		return nil, fmt.Errorf("ledger lines sum to %d ns, profile total is %d ns", sum, l.total)
	}
	return l, nil
}

// metrics renders the ledger as per-layer metrics in seconds.
func (l *ledger) metrics() simSet {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	var out simSet
	for _, name := range ledgerLines {
		out = append(out, metric{Name: name, Unit: "s", Value: sec(l.lines[name])})
	}
	for _, o := range append(append([]string(nil), cryptoOwners...), "other") {
		name := o + ".crypto_s"
		out = append(out, metric{Name: name, Unit: "s", Value: sec(l.crypto[name])})
	}
	return append(out, metric{Name: "cpu.total_s", Unit: "s", Value: sec(l.total)})
}

// --- A minimal reader for the profile.proto messages the ledger needs.

type sample struct {
	frames []string // function names, leaf first (inlined callees first)
	cpuNS  int64
}

// pbField is one decoded protobuf field: a varint value or a payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 2:
			var size uint64
			if size, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			if uint64(len(b)-n) < size {
				return nil, errors.New("profile: truncated field")
			}
			f.b = b[n : n+int(size)]
			n += int(size)
		case 5:
			n = 4
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if n > len(b) {
			return nil, errors.New("profile: truncated field")
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field in either packed or plain form.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes the samples of a gzip-compressed CPU profile,
// keeping the cpu/nanoseconds value and the symbolized stack.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	var sampleTypes [][]byte
	var rawSamples [][]byte
	funcName := make(map[uint64]uint64) // function id → string index
	locFuncs := make(map[uint64][]uint64)
	for _, f := range fields {
		switch f.num {
		case 1:
			sampleTypes = append(sampleTypes, f.b)
		case 2:
			rawSamples = append(rawSamples, f.b)
		case 4: // Location{id=1, line=4}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line{function_id=1}
					line, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function{id=1, name=2}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, st := range sampleTypes {
		sub, err := pbFields(st)
		if err != nil {
			return nil, err
		}
		for _, g := range sub {
			if g.num == 2 && str(g.v) == "nanoseconds" {
				cpuIdx = i
			}
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	var samples []sample
	for _, rs := range rawSamples {
		sub, err := pbFields(rs)
		if err != nil {
			return nil, err
		}
		var s sample
		var values []uint64
		for _, g := range sub {
			ints, err := pbInts(g)
			if err != nil {
				return nil, err
			}
			switch g.num {
			case 1:
				for _, loc := range ints {
					for _, fn := range locFuncs[loc] {
						s.frames = append(s.frames, str(funcName[fn]))
					}
				}
			case 2:
				values = append(values, ints...)
			}
		}
		if cpuIdx >= len(values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s.cpuNS = int64(values[cpuIdx])
		samples = append(samples, s)
	}
	return samples, nil
}
