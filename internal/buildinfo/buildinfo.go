// Package buildinfo exposes the binary's build identity — module
// version, VCS revision and commit time, Go toolchain — read once from
// debug.ReadBuildInfo. The daemon prints it for -version and copies
// it into the client.Health and client.Stats documents it serves, so
// every process in a cluster can be identified from the outside.
package buildinfo

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Info is the build identity of the running binary. Fields are empty
// when the binary was built without module or VCS metadata (e.g. plain
// `go build` in a test sandbox).
type Info struct {
	// Version is the main module version ("(devel)" for local builds).
	Version string `json:"version,omitempty"`
	// Revision is the VCS commit hash, suffixed with "+dirty" when the
	// working tree had local modifications.
	Revision string `json:"revision,omitempty"`
	// BuildTime is the VCS commit timestamp (RFC 3339).
	BuildTime string `json:"build_time,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
}

var get = sync.OnceValue(func() Info {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return Info{}
	}
	info := Info{
		Version:   bi.Main.Version,
		GoVersion: bi.GoVersion,
	}
	var dirty bool
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.BuildTime = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && info.Revision != "" {
		info.Revision += "+dirty"
	}
	return info
})

// Get returns the process's build identity (computed once).
func Get() Info { return get() }

// String renders the identity as a one-line human-readable form for
// `awakemisd -version`.
func (i Info) String() string {
	v := i.Version
	if v == "" {
		v = "unknown"
	}
	s := fmt.Sprintf("awakemisd %s", v)
	if i.Revision != "" {
		s += fmt.Sprintf(" (%s", i.Revision)
		if i.BuildTime != "" {
			s += " " + i.BuildTime
		}
		s += ")"
	}
	if i.GoVersion != "" {
		s += " " + i.GoVersion
	}
	return s
}
