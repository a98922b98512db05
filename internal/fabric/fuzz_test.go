package fabric

import (
	"encoding/json"
	"testing"
)

// FuzzProtocolDecode hammers the fabric's trust boundary with adversarial
// bytes. Three properties must hold for every input:
//
//  1. Decoding any wire type never panics — a hostile worker controls
//     every byte the coordinator parses.
//  2. The attestation digest cannot be forged structurally: mutating a
//     payload byte changes the digest, and — because fields are
//     length-prefixed — shifting a byte across the key/payload boundary
//     changes it too.
//  3. A live coordinator never completes a cell on a fuzzer-supplied
//     digest unless it happens to BE the correct digest.
func FuzzProtocolDecode(f *testing.F) {
	for _, seed := range []string{
		`{"name":"sweep","fingerprint":"insts=1000","jobs":[{"key":"fig1/mcf/mtvp4","bench":"mcf","preset":"mtvp4","seed":3}]}`,
		`{"campaign":"deadbeef","spec":{"key":"a/b"},"ttl":15000000000,"heartbeat_every":5000000000}`,
		`{"worker":"host:1","campaign":"deadbeef","key":"a/b","ok":true,"result":{"ipc":1.5},"digest":"sha256:00"}`,
		`{"worker":"host:1","campaign":"deadbeef","key":"a/b"}`,
		`{"worker":"w","campaign":"c","key":"k","ok":false,"error":"boom","fail_kind":"lost-worker","released":true}`,
		"\x00\xff{]", // garbage
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: no wire type panics on arbitrary bytes.
		for _, dst := range []any{
			new(CampaignSpec), new(JobSpec), new(SubmitResponse),
			new(LeaseRequest), new(Lease), new(HeartbeatRequest),
			new(ResultRequest), new(ResultResponse), new(CampaignStatus),
			new(CampaignResults),
		} {
			json.Unmarshal(data, dst) // errors are fine, panics are not
		}

		// Property 2: digest integrity over fuzz-derived fields.
		if n := len(data); n >= 3 {
			a, b := n/3, 2*n/3
			campaign := string(data[:a])
			spec := JobSpec{Key: "k" + string(data[a:b])}
			payload := json.RawMessage(data[b:])
			d0 := ResultDigest(campaign, spec, payload)

			mut := append(json.RawMessage(nil), payload...)
			mut[0] ^= 1
			if ResultDigest(campaign, spec, mut) == d0 {
				t.Fatalf("payload mutation left digest unchanged (%q)", data)
			}

			// Move the key's last byte to the payload's front: same
			// concatenated bytes, different field boundary.
			shifted := spec
			shifted.Key = spec.Key[:len(spec.Key)-1]
			moved := append(json.RawMessage{spec.Key[len(spec.Key)-1]}, payload...)
			if ResultDigest(campaign, shifted, moved) == d0 {
				t.Fatalf("field-boundary shift left digest unchanged (%q)", data)
			}
		}

		// Property 3: a live coordinator treats the fuzz input as the
		// attacker-chosen digest; the cell may only complete if the guess
		// is exactly right.
		co, err := NewCoordinator(CoordinatorConfig{Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		spec := testSpec("fuzz", 1)
		sub, err := co.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := co.Lease("fz"); !ok {
			t.Fatal("lease refused")
		}
		payload := json.RawMessage(`{"v":1}`)
		co.Result(ResultRequest{
			Worker: "fz", Campaign: sub.ID, Key: "fuzz/cell-00",
			OK: true, Result: payload, Digest: string(data),
		})
		st, err := co.Status(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := ResultDigest(sub.ID, spec.Jobs[0], payload); st.Done == 1 && string(data) != want {
			t.Fatalf("coordinator accepted forged digest %q (want %q)", data, want)
		}
	})
}
