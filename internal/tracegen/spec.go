package tracegen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"rdramstream/internal/rdram"
	"rdramstream/internal/workload"
)

// Spec is how a scenario names a trace workload: either a generator
// Program (expanded deterministically at run time) or an explicit
// access list (a posted or file-loaded trace). Exactly one of the two
// must be set on an executable spec. The canonical form carries neither
// — only the content digest of the materialized trace — so a program
// and the very trace it expands to are the same cache entry.
//
// rdlint:wire — rides inside scenario JSON, cache entries, and the key.
type Spec struct {
	// Program, when non-nil, generates the trace.
	Program *Program `json:"program,omitempty"`
	// Accesses, when non-empty, is the trace itself.
	Accesses []workload.TraceAccess `json:"accesses,omitempty"`
	// Digest is the SHA-256 content address of the materialized trace.
	// Ignored on input (always recomputed); set on canonical specs.
	Digest string `json:"digest,omitempty"`
	// Outstanding is the replay controller's request pipeline depth
	// (0 = the Direct RDRAM limit of four).
	Outstanding int `json:"outstanding,omitempty"`
}

// Validate checks that the spec is executable: exactly one trace
// source, well-formed, within bounds.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("tracegen: nil spec")
	}
	hasProg := s.Program != nil
	hasAccs := len(s.Accesses) > 0
	switch {
	case hasProg && hasAccs:
		return fmt.Errorf("tracegen: spec carries both a program and explicit accesses; exactly one must be set")
	case !hasProg && !hasAccs:
		return fmt.Errorf("tracegen: spec carries neither a program nor accesses")
	}
	if hasProg {
		if err := s.Program.Validate(); err != nil {
			return err
		}
	} else {
		if len(s.Accesses) > MaxAccesses {
			return fmt.Errorf("tracegen: %d accesses exceed the limit %d", len(s.Accesses), MaxAccesses)
		}
		for i, a := range s.Accesses {
			if a.Addr < 0 {
				return fmt.Errorf("tracegen: access %d has negative address %d", i, a.Addr)
			}
		}
	}
	if s.Outstanding < 0 || s.Outstanding > rdram.MaxOutstanding {
		return fmt.Errorf("tracegen: outstanding %d out of [0, %d]", s.Outstanding, rdram.MaxOutstanding)
	}
	return nil
}

// Materialize returns the spec's access trace: the explicit list, or
// the program's deterministic expansion.
func (s *Spec) Materialize() ([]workload.TraceAccess, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Program != nil {
		return s.Program.Generate()
	}
	return s.Accesses, nil
}

// Canonical reduces the spec to its content-addressed normal form: the
// trace source (program or access list) is materialized and replaced by
// its digest, and Outstanding is normalized to the device default. Two
// specs that replay identically — a program vs. the trace it generates,
// a spelled-out vs. defaulted pipeline depth — canonicalize equal,
// which is what makes trace scenarios dedup in the result cache and
// shard consistently across the fabric.
func (s *Spec) Canonical() (Spec, error) {
	accs, err := s.Materialize()
	if err != nil {
		return Spec{}, err
	}
	out := Spec{Digest: DigestOf(accs), Outstanding: s.Outstanding}
	if out.Outstanding == 0 {
		out.Outstanding = rdram.MaxOutstanding
	}
	return out, nil
}

// DigestOf is the trace content address: a hex SHA-256 over each
// access's op byte ('R'/'W') and big-endian 64-bit address, in order.
// It depends on nothing but the access sequence itself, so a generated
// trace, the same trace posted over the wire, and the same trace read
// back from a file all digest identically.
func DigestOf(accs []workload.TraceAccess) string {
	h := sha256.New()
	// Records are batched so the hash sees a few large writes rather
	// than one 9-byte write per access.
	const rec, batch = 9, 512
	var buf [rec * batch]byte
	n := 0
	for _, a := range accs {
		buf[n] = 'R'
		if a.Write {
			buf[n] = 'W'
		}
		binary.BigEndian.PutUint64(buf[n+1:n+rec], uint64(a.Addr))
		if n += rec; n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	h.Write(buf[:n])
	return hex.EncodeToString(h.Sum(nil))
}
