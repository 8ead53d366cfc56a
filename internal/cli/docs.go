package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	// defaultsLine is one flag's first line in FlagSet.PrintDefaults
	// output; a boolean flag has no type word, and a one-letter boolean
	// flag has its usage after a tab.
	defaultsLine = regexp.MustCompile(`(?m)^  -(\S+)( \S+)?(?:\t.*)?$`)
	usageFlag    = regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`)
)

// CheckDocs checks command name's flags against what documents them, from
// a test running in the command's directory; root is the repository root.
// The flags run defines, as its -h output on stdout lists them, must be
// exactly those the Usage block of main.go's doc comment names, and every
// command line README.md, DESIGN.md or EXPERIMENTS.md shows for the
// command must parse: run gets the line's flags followed by -h, so parsing
// stops before the command does anything.
func CheckDocs(root, name string, run Run) []error {
	var help strings.Builder
	if err := run([]string{"-h"}, &help); !errors.Is(err, flag.ErrHelp) {
		return []error{fmt.Errorf("%s -h: %v", name, err)}
	}
	defined := map[string]bool{} // flag name → boolean
	for _, m := range defaultsLine.FindAllStringSubmatch(help.String(), -1) {
		defined[m[1]] = m[2] == ""
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		return []error{err}
	}
	_, block, _ := strings.Cut(string(src), "// Usage:\n//\n")
	usage := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		if !strings.HasPrefix(line, "//\t") {
			break
		}
		for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
			usage[m[1]] = true
		}
	}
	var errs []error
	for f := range defined {
		if !usage[f] {
			errs = append(errs, fmt.Errorf("%s defines -%s, which the Usage block of main.go does not name", name, f))
		}
	}
	for f := range usage {
		if _, ok := defined[f]; !ok {
			errs = append(errs, fmt.Errorf("the Usage block of main.go names -%s, which %s does not define", f, name))
		}
	}

	mention := regexp.MustCompile("(?:^|[\\s`(]|cmd/)" + regexp.QuoteMeta(name) + "(?:$|[\\s`])")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		buf, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return append(errs, err)
		}
		text := strings.ReplaceAll(string(buf), "\\\n", " ")
		for i, line := range strings.Split(text, "\n") {
			for _, loc := range mention.FindAllStringIndex(line, -1) {
				args, err := docArgs(strings.TrimLeft(line[loc[1]-1:], "`"), defined)
				if err == nil && len(args) > 0 {
					if err = run(append(args, "-h"), io.Discard); errors.Is(err, flag.ErrHelp) {
						err = nil
					}
				}
				if err != nil {
					errs = append(errs, fmt.Errorf("%s:%d: %s %s: %v", doc, i+1, name, strings.Join(args, " "), err))
				}
			}
		}
	}
	return errs
}

// docArgs reads the flags, and the values of non-boolean ones, at the
// start of s, up to shell punctuation, a comment, a closing backtick or a
// word that is neither. A placeholder such as <id> stands for a value. A
// non-boolean flag without one is an error: run would take the -h that
// follows as its value and go on to run the command.
func docArgs(s string, defined map[string]bool) ([]string, error) {
	var args []string
	words := strings.Fields(s)
	for i := 0; i < len(words); i++ {
		w, _, end := strings.Cut(words[i], "`")
		if !strings.HasPrefix(w, "-") || len(w) < 2 {
			break
		}
		args = append(args, w)
		isBool, ok := defined[strings.TrimLeft(strings.SplitN(w, "=", 2)[0], "-")]
		if !ok || isBool || strings.Contains(w, "=") {
			if end || !ok {
				break // run reports an undefined flag
			}
			continue
		}
		v := ""
		if !end && i+1 < len(words) {
			v, _, end = strings.Cut(words[i+1], "`")
		}
		if v == "" || strings.ContainsAny(v[:1], "#-") || strings.Trim(v, "&|<>;") == "" {
			return args, fmt.Errorf("flag %s has no value", w)
		}
		args = append(args, strings.Trim(v, "'"))
		i++
		if end {
			break
		}
	}
	return args, nil
}
