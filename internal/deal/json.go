package deal

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file provides JSON encoding for deal specifications, so deals can
// be authored as files and fed to tools (a dealsweep scenario carries one
// as Deal.Spec). The encoding is the natural one — Spec's exported
// fields — plus validation on decode, since a spec from disk is as
// untrusted as one from a clearing service.

// MarshalJSONSpec encodes a spec as indented JSON.
func MarshalJSONSpec(s *Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// UnmarshalJSONSpec decodes and structurally validates a spec.
func UnmarshalJSONSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("deal: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ReadSpec decodes a validated spec from a reader.
func ReadSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("deal: reading spec: %w", err)
	}
	return UnmarshalJSONSpec(data)
}

// WriteSpec encodes a spec to a writer.
func WriteSpec(w io.Writer, s *Spec) error {
	data, err := MarshalJSONSpec(s)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
