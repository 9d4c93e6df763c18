package ticket

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/cryptoutil"
)

// verifyBoth runs both ticket kinds over one blob; a blob is a valid
// ticket of at most one kind, so the pair is its full observable result.
type verifyBoth struct {
	ut   *UserTicket
	uErr error
	ct   *ChannelTicket
	cErr error
}

func verifyAll(b []byte, pub cryptoutil.PublicKey) verifyBoth {
	var r verifyBoth
	r.ut, r.uErr = VerifyUser(b, pub)
	r.ct, r.cErr = VerifyChannel(b, pub)
	return r
}

// uncached is the reference: the same verification against an empty
// memo, which leaves the memo empty again afterwards.
func uncached(b []byte, pub cryptoutil.PublicKey) verifyBoth {
	ResetVerifyMemo()
	defer ResetVerifyMemo()
	return verifyAll(b, pub)
}

func (r verifyBoth) equal(o verifyBoth) bool {
	return errors.Is(r.uErr, o.uErr) && errors.Is(r.cErr, o.cErr) &&
		reflect.DeepEqual(r.ut, o.ut) && reflect.DeepEqual(r.ct, o.ct)
}

func channelBlob(mgr, client *cryptoutil.KeyPair, userIN uint64) []byte {
	return SignChannel(&ChannelTicket{
		UserIN: userIN, ChannelID: "ch", NetAddr: "r1.as1.h1",
		ClientKey: client.Public(), Start: tStart, Expiry: tEnd,
	}, mgr)
}

type blobCase struct {
	name string
	blob []byte
	pub  cryptoutil.PublicKey
}

// memoCases builds valid and expired tickets of both kinds, a one-bit
// mutant of each, a wrong-signer presentation, and truncated and empty
// blobs.
func memoCases(t *testing.T) []blobCase {
	t.Helper()
	rng := cryptoutil.NewSeededReader(7)
	mgr, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	client, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	prng := mrand.New(mrand.NewSource(7))
	pub := mgr.Public()

	var cases []blobCase
	// Expiry lives in ValidAt, outside verification, so an expired
	// ticket must verify exactly like a current one.
	for i := 0; i < 8; i++ {
		expiry, kind := tEnd, "valid"
		if i%2 == 1 {
			expiry, kind = tStart.Add(-time.Hour), "expired"
		}
		ut := &UserTicket{
			UserIN:    uint64(1000 + i),
			ClientKey: client.Public(),
			Start:     tStart,
			Expiry:    expiry,
			Attrs: attr.List{
				{Name: attr.NameNetAddr, Value: attr.Value(fmt.Sprintf("r1.as%d.h7", i))},
				{Name: attr.NameRegion, Value: "100"},
			},
		}
		cases = append(cases, blobCase{fmt.Sprintf("user/%s/%d", kind, i), SignUser(ut, mgr), pub})
		ct := &ChannelTicket{
			UserIN: uint64(2000 + i), ChannelID: fmt.Sprintf("ch%d", i),
			NetAddr: "r1.as1.h1", ClientKey: client.Public(),
			Start: tStart, Expiry: expiry, Renewal: i%4 == 2,
		}
		cases = append(cases, blobCase{fmt.Sprintf("channel/%s/%d", kind, i), SignChannel(ct, mgr), pub})
	}
	base := cases[:len(cases):len(cases)]
	for i, c := range base {
		mut := append([]byte(nil), c.blob...)
		pos := prng.Intn(len(mut))
		mut[pos] ^= 1 << uint(prng.Intn(8))
		cases = append(cases, blobCase{fmt.Sprintf("bitflip/%d/pos%d", i, pos), mut, pub})
	}
	cases = append(cases,
		blobCase{"wrong-signer", base[0].blob, other.Public()},
		blobCase{"empty", nil, pub},
		blobCase{"truncated", base[0].blob[:len(base[0].blob)/2], pub},
	)
	return cases
}

// TestMemoMatchesUncached is the memo-transparency property: for every
// case, a cold and a warm verification both return exactly what the
// uncached path returns, and the warm passes are served by the memo.
func TestMemoMatchesUncached(t *testing.T) {
	var checks, calls int64
	for _, c := range memoCases(t) {
		want := uncached(c.blob, c.pub)
		before := sigChecks.Load()
		for pass := 0; pass < 2; pass++ {
			if got := verifyAll(c.blob, c.pub); !got.equal(want) {
				t.Fatalf("%s pass %d: got %+v, uncached %+v", c.name, pass, got, want)
			}
		}
		checks += sigChecks.Load() - before
		calls += 4
	}
	if checks >= calls {
		t.Fatalf("%d real checks for %d verifications: the memo never hit", checks, calls)
	}
}

// TestMemoForgedNeverCached pins the security property: after a blob is
// memoized, every single-bit mutation of it fails, on every presentation,
// and the original keeps hitting.
func TestMemoForgedNeverCached(t *testing.T) {
	mgr, client := newKeys(t)
	blob := channelBlob(mgr, client, 1)
	pub := mgr.Public()
	if _, err := VerifyChannel(blob, pub); err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	for pos := range mut {
		for bit := 0; bit < 8; bit++ {
			mut[pos] ^= 1 << bit
			for try := 0; try < 2; try++ {
				if _, err := VerifyChannel(mut, pub); err == nil {
					t.Fatalf("flip of bit %d at byte %d verified (try %d)", bit, pos, try)
				}
			}
			mut[pos] ^= 1 << bit
		}
	}
	before := sigChecks.Load()
	if _, err := VerifyChannel(blob, pub); err != nil {
		t.Fatal(err)
	}
	if sigChecks.Load() != before {
		t.Fatal("original blob stopped hitting the memo")
	}
}

// TestMemoWrongSignerFails: a memoized blob presented under another
// signer's key is checked for real, and fails, every time.
func TestMemoWrongSignerFails(t *testing.T) {
	mgr, client := newKeys(t)
	other, err := cryptoutil.NewKeyPair(cryptoutil.NewSeededReader(2))
	if err != nil {
		t.Fatal(err)
	}
	blob := SignUser(sampleUserTicket(client), mgr)
	if _, err := VerifyUser(blob, mgr.Public()); err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 2; try++ {
		if _, err := VerifyUser(blob, other.Public()); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("try %d: wrong-signer verify err = %v, want ErrBadSignature", try, err)
		}
	}
}

// TestMemoMalformedSignerNeverAliases shifts one byte between a
// memoized signer key and the blob: a key half one byte short, with that
// byte prepended to the blob. A memo key that hashed the two side by
// side would see the same bytes as the memoized entry; the memo must
// instead agree with the uncached path and refuse.
func TestMemoMalformedSignerNeverAliases(t *testing.T) {
	mgr, client := newKeys(t)
	pub := mgr.Public()
	blob := channelBlob(mgr, client, 3)
	if _, err := VerifyChannel(blob, pub); err != nil {
		t.Fatal(err)
	}
	shift := func(half []byte) ([]byte, []byte) {
		n := len(half) - 1
		return half[:n:n], append([]byte{half[n]}, blob...)
	}
	shortVerify, blobV := shift(pub.Verify)
	shortBox, blobB := shift(pub.Box)
	for _, c := range []blobCase{
		{"verify-key short", blobV, cryptoutil.PublicKey{Verify: shortVerify, Box: pub.Box}},
		{"box-key short", blobB, cryptoutil.PublicKey{Verify: pub.Verify, Box: shortBox}},
	} {
		want := uncached(c.blob, c.pub)
		if want.cErr == nil || want.uErr == nil {
			t.Fatalf("%s: uncached path accepted the shifted blob", c.name)
		}
		if _, err := VerifyChannel(blob, pub); err != nil {
			t.Fatal(err)
		}
		for try := 0; try < 2; try++ {
			if got := verifyAll(c.blob, c.pub); !got.equal(want) {
				t.Fatalf("%s try %d: got %+v, uncached %+v", c.name, try, got, want)
			}
		}
	}
}

// TestMemoCountsRealVerifies: a forged blob costs a real Ed25519 check
// on every presentation; a valid one costs one check, then hits.
func TestMemoCountsRealVerifies(t *testing.T) {
	mgr, client := newKeys(t)
	pub := mgr.Public()
	blob := channelBlob(mgr, client, 4)
	forged := append([]byte(nil), blob...)
	forged[len(forged)-1] ^= 0x80
	ResetVerifyMemo()
	for _, c := range []struct {
		name string
		blob []byte
		want int64
	}{{"forged", forged, 2}, {"valid", blob, 1}} {
		before := sigChecks.Load()
		for i := 0; i < 2; i++ {
			VerifyChannel(c.blob, pub)
		}
		if got := sigChecks.Load() - before; got != c.want {
			t.Errorf("%s blob checked twice: %d real verifies, want %d", c.name, got, c.want)
		}
	}
}

// TestMemoBoundUnderChurn: more distinct successes than the memo holds
// never grow it past memoCap, and the least recently used entry goes.
func TestMemoBoundUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("signs memoCap+1 tickets")
	}
	mgr, client := newKeys(t)
	pub := mgr.Public()
	ResetVerifyMemo()
	first := channelBlob(mgr, client, 0)
	for i := 0; i <= memoCap; i++ {
		b := first
		if i > 0 {
			b = channelBlob(mgr, client, uint64(i))
		}
		if _, err := VerifyChannel(b, pub); err != nil {
			t.Fatal(err)
		}
		if n := memo.Len(); n > memoCap {
			t.Fatalf("memo holds %d > %d entries after %d verifies", n, memoCap, i+1)
		}
	}
	before := sigChecks.Load()
	if _, err := VerifyChannel(first, pub); err != nil {
		t.Fatal(err)
	}
	if sigChecks.Load() != before+1 {
		t.Fatal("evicted entry still served from the memo")
	}
}

// TestMemoConcurrent: many goroutines verify shared valid, forged and
// wrong-signer blobs at once; every result equals the uncached result.
// Run under -race this also checks the memo's locking.
func TestMemoConcurrent(t *testing.T) {
	cases := memoCases(t)
	want := make([]verifyBoth, len(cases))
	for i, c := range cases {
		want[i] = uncached(c.blob, c.pub)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range cases {
					i := (j + g) % len(cases)
					if got := verifyAll(cases[i].blob, cases[i].pub); !got.equal(want[i]) {
						errs <- fmt.Sprintf("goroutine %d %s: got %+v, uncached %+v", g, cases[i].name, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
