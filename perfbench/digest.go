package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"regexp"
)

// golden holds the digests recorded for a fixed set of seeds, one per
// operation key (workload/seed/op). They pin the program's output
// bytes: a change that alters a Report or a StudyResult fails here.
//
//go:embed digests.json
var goldenJSON []byte

// digestBook checks each operation's digest against the golden record
// or, for a seed the golden record lacks, against the digest recorded
// by an earlier run of the same seed in this checkout. A digest seen
// for the first time is recorded.
type digestBook struct {
	golden, local map[string]string
	path          string
	dirty         bool
}

func openDigests(path string) (*digestBook, error) {
	d := &digestBook{path: path, local: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &d.golden); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(data, &d.local); err != nil {
			return nil, fmt.Errorf("digest record %s: %w", path, err)
		}
	}
	return d, nil
}

// check compares got with the digest recorded for key.
func (d *digestBook) check(key, got string) error {
	want, ok := d.golden[key]
	src := "golden"
	if !ok {
		want, ok = d.local[key]
		src = "recorded"
	}
	if !ok {
		d.local[key] = got
		d.dirty = true
		return nil
	}
	if want != got {
		return fmt.Errorf("digest %s is %s, the %s digest is %s", key, got[:16], src, want[:16])
	}
	return nil
}

func (d *digestBook) save() error {
	if !d.dirty {
		return nil
	}
	data, err := json.MarshalIndent(d.local, "", " ")
	if err != nil {
		return err
	}
	tmp := d.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.path)
}

func digest(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

var wallMS = regexp.MustCompile(`"wall_ms": ?[-0-9.eE+]+`)

// zeroWall replaces a Report's wall_ms value, its only
// nondeterministic field, with 0. It returns nil unless the report has
// exactly one wall_ms field.
func zeroWall(report []byte) []byte {
	n := 0
	out := wallMS.ReplaceAllFunc(report, func(m []byte) []byte {
		n++
		if bytes.Contains(m, []byte(": ")) {
			return []byte(`"wall_ms": 0`)
		}
		return []byte(`"wall_ms":0`)
	})
	if n != 1 {
		return nil
	}
	return out
}
