// Package version carries the build identity every mtvp binary reports in
// its -version output.
package version

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
)

// Version identifies the build. Release builds inject it:
//
//	go build -ldflags "-X mtvp/internal/version.Version=v1.2.3"
//
// Dev builds fall back to the VCS revision stamped into the build info.
var Version = "dev"

// String returns the effective version: the injected Version, or
// "dev+<revision>" when the toolchain stamped one.
func String() string {
	if Version != "dev" {
		return Version
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return Version + "+" + s.Value[:12]
			}
		}
	}
	return Version
}

// Print writes the standard -version line for a binary.
func Print(w io.Writer, binary string) {
	fmt.Fprintf(w, "%s %s (%s, %s/%s)\n", binary, String(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
