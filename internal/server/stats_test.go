package server

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestStatsFormatCoversEveryField sets every Stats field to a distinct
// value and requires Format to print each exactly once, under the group
// and name its stat tag gives, with one line per group and no two lines
// sharing a "group:" prefix.
func TestStatsFormatCoversEveryField(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(1000 + i))
	}
	text := st.Format()
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("stats text does not end in a newline:\n%s", text)
	}
	printed := map[string]string{} // "group name" → value
	lines := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		group, rest, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("line %q has no \"group: \" prefix", line)
		}
		if lines[group] {
			t.Errorf("two lines start %q (a group split across lines)", group+":")
		}
		lines[group] = true
		for _, f := range strings.Fields(rest) {
			name, val, ok := strings.Cut(f, "=")
			if !ok {
				t.Fatalf("%q on line %q is not name=value", f, line)
			}
			key := group + " " + name
			if _, dup := printed[key]; dup {
				t.Errorf("%s printed twice", key)
			}
			printed[key] = val
		}
	}
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("stat")
		if _, _, ok := strings.Cut(tag, " "); !ok {
			t.Errorf("Stats.%s has no stat:\"group name\" tag", f.Name)
			continue
		}
		if got, want := printed[tag], strconv.Itoa(1000+i); got != want {
			t.Errorf("Stats.%s (%s) printed as %q, want %s", f.Name, tag, got, want)
		}
		delete(printed, tag)
	}
	for key, val := range printed {
		t.Errorf("%s=%s printed but is no Stats field", key, val)
	}
}
