package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"netdiversity/internal/slam"
)

// jsonName returns a struct field's JSON name ("" when it has none).
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	if name == "-" {
		return ""
	}
	return name
}

// elem strips pointers, slices and maps down to the element type.
func elem(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Map {
		t = t.Elem()
	}
	return t
}

// collectTags adds the JSON name of every field reachable from t to tags.
// The nested slam.RunResult is a leaf: docs/LOADTEST.md owns its fields.
func collectTags(t reflect.Type, tags map[string]bool) {
	if t = elem(t); t.Kind() != reflect.Struct || t == reflect.TypeOf(slam.RunResult{}) {
		return
	}
	for i := 0; i < t.NumField(); i++ {
		if name := jsonName(t.Field(i)); name != "" {
			tags[name] = true
			collectTags(t.Field(i).Type, tags)
		}
	}
}

// resolves reports whether the dotted JSON path names a field below t.
func resolves(t reflect.Type, path string) bool {
	head, rest, nested := strings.Cut(path, ".")
	if t = elem(t); t.Kind() != reflect.Struct {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		if jsonName(t.Field(i)) == head {
			return !nested || resolves(t.Field(i).Type, rest)
		}
	}
	return false
}

// TestSchemaDocListsEveryField keeps docs/BENCH_SCHEMA.md and the report
// structs in step, both ways: every JSON field reachable from Report, and
// every field of the nested slam object the gate reads, is named in the
// document; and every field a table of the document names in its first
// column exists on a cell.
func TestSchemaDocListsEveryField(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "BENCH_SCHEMA.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	cell := reflect.TypeOf(Measurement{})

	tags := map[string]bool{}
	collectTags(reflect.TypeOf(Report{}), tags)
	for _, gated := range []string{"slam.total.count", "slam.total.errors", "slam.mem.alloc_bytes_per_op"} {
		if !resolves(cell, gated) {
			t.Errorf("gated field %s does not exist on a cell", gated)
		}
		tags[gated] = true
	}
	for tag := range tags {
		if !strings.Contains(doc, "`"+tag+"`") {
			t.Errorf("docs/BENCH_SCHEMA.md does not mention `%s`", tag)
		}
	}

	backticked := regexp.MustCompile("`([^`]+)`")
	rows := 0
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		rows++
		first, _, _ := strings.Cut(line[2:], "|")
		for _, m := range backticked.FindAllStringSubmatch(first, -1) {
			if !resolves(cell, m[1]) {
				t.Errorf("docs/BENCH_SCHEMA.md documents `%s`, which is not a cell field", m[1])
			}
		}
	}
	if rows < 40 {
		t.Errorf("found only %d field rows: did the tables change shape?", rows)
	}
}
