package nfvnice

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	docSpan    = regexp.MustCompile("`([^`]+)`")
	docLineRef = regexp.MustCompile(`:\d+(-\d+)?$`)
	docMake    = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// docCode is one piece of code in a markdown file: a line inside a ``` fence
// or an inline back-ticked span outside one.
type docCode struct {
	line   int
	text   string
	fenced bool
}

func readDocCode(t *testing.T, name string) []docCode {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var code []docCode
	fenced := false
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, docCode{n, line, true})
		default:
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				code = append(code, docCode{n, m[1], false})
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return code
}

// TestDocsReferToWhatExists keeps the prose honest about the tree: every
// path under cmd/, internal/, examples/, hypotheses/ or benchmark/ that the
// documents put in a back-ticked span, or hand to a command as ./path inside
// a fence, must exist, and every `make <target>` must be a Makefile target.
// Tokens with braces, globs or placeholders are skipped.
func TestDocsReferToWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	roots := []string{"cmd/", "internal/", "examples/", "hypotheses/", "benchmark/"}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for _, c := range readDocCode(t, doc) {
			for _, m := range docMake.FindAllStringSubmatch(c.text, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s` is not a Makefile target", doc, c.line, m[1])
				}
			}
			for _, tok := range strings.Fields(c.text) {
				tok, dotted := strings.CutPrefix(tok, "./")
				if c.fenced && !dotted {
					continue // diagrams and output file names
				}
				tok = strings.TrimRight(tok, ".,;:)")
				tok = docLineRef.ReplaceAllString(tok, "")
				if strings.ContainsAny(tok, "{}*<>…") {
					continue
				}
				for _, root := range roots {
					if !strings.HasPrefix(tok, root) {
						continue
					}
					if _, err := os.Stat(tok); err != nil {
						t.Errorf("%s:%d: `%s` does not exist", doc, c.line, tok)
					}
				}
			}
		}
	}
}
