package worker

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/wire"
)

// wireVersion is the frame format this build speaks. A worker announces it
// in its hello, and the coordinator accepts only its own version: both ends
// are always the same strata binary, so a mismatch means a stale worker
// build, which is refused with a *WireVersionError instead of guessed at.
const wireVersion = 3

// WireVersionError rejects a worker whose hello announced a frame format
// version other than this build's wireVersion.
type WireVersionError struct {
	// Got is the version the worker announced; Want is wireVersion.
	Got, Want uint8
}

// Error renders the mismatch, naming both versions.
func (e *WireVersionError) Error() string {
	return fmt.Sprintf("worker: hello announces wire version %d, this build speaks version %d", e.Got, e.Want)
}

// envelope flag bits in the binary frame encoding.
const (
	envShuffleLost = 1 << 0
	envHasSpec     = 1 << 1
	envHasResult   = 1 << 2
)

// appendEnvelope appends the binary form of one frame body: kind byte, flag
// byte, then — hello frames only — the wire version byte and the wall-clock
// sample, then identity strings, seq, error text, and the spec/result
// bodies when present. The version sits at a fixed offset so any build can
// read it from any other build's hello.
func appendEnvelope(buf []byte, env *envelope) []byte {
	buf = append(buf, byte(env.Kind))
	var flags byte
	if env.ShuffleLost {
		flags |= envShuffleLost
	}
	if env.Spec != nil {
		flags |= envHasSpec
	}
	if env.Result != nil {
		flags |= envHasResult
	}
	buf = append(buf, flags)
	if env.Kind == msgHello {
		buf = append(buf, env.WireVersion)
		buf = wire.AppendVarint(buf, env.WallNanos)
	}
	buf = wire.AppendString(buf, env.ID)
	buf = wire.AppendString(buf, env.ShuffleAddr)
	buf = wire.AppendUvarint(buf, env.Seq)
	buf = wire.AppendString(buf, env.Err)
	if env.Spec != nil {
		buf = mapreduce.AppendTaskSpec(buf, env.Spec)
	}
	if env.Result != nil {
		buf = mapreduce.AppendTaskResult(buf, env.Result)
	}
	return buf
}

// decodeEnvelope decodes one binary frame body. Byte-slice fields of the
// embedded spec/result alias payload, so the caller must hand over
// ownership of the buffer (the read path allocates a fresh buffer per
// frame for exactly this reason). A hello announcing a version other than
// wireVersion stops at the version byte with a *WireVersionError: the rest
// of a foreign build's frame cannot be trusted to follow this layout.
func decodeEnvelope(payload []byte) (*envelope, error) {
	r := wire.NewReader(payload)
	env := &envelope{}
	env.Kind = msgKind(r.Byte())
	flags := r.Byte()
	if env.Kind == msgHello {
		env.WireVersion = r.Byte()
		if r.Err() == nil && env.WireVersion != wireVersion {
			return nil, &WireVersionError{Got: env.WireVersion, Want: wireVersion}
		}
		env.WallNanos = r.Varint()
	}
	env.ShuffleLost = flags&envShuffleLost != 0
	env.ID = r.String()
	env.ShuffleAddr = r.String()
	env.Seq = r.Uvarint()
	env.Err = r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if flags&envHasSpec != 0 {
		spec, err := mapreduce.ReadTaskSpec(r)
		if err != nil {
			return nil, err
		}
		env.Spec = spec
	}
	if flags&envHasResult != 0 {
		res, err := mapreduce.ReadTaskResult(r)
		if err != nil {
			return nil, err
		}
		env.Result = res
	}
	if env.Kind < msgHello || env.Kind > msgDrain {
		return nil, fmt.Errorf("worker: frame with unknown kind %d: %w", env.Kind, wire.ErrCorrupt)
	}
	return env, r.Done()
}
