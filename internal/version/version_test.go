package version

import (
	"strings"
	"testing"
)

func TestPrintVersionLine(t *testing.T) {
	var b strings.Builder
	Print(&b, "mtvptest")
	if !strings.HasPrefix(b.String(), "mtvptest "+String()+" (go") {
		t.Fatalf("unexpected -version line: %q", b.String())
	}
}
