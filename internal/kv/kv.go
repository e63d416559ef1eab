// Package kv is the compact "key=value,…" grammar shared by the
// command-line fault, churn and operating-mode specs. Each spec declares one
// field table; Parse and Format are both driven by it, so the three specs
// agree on syntax, error wording and printed form by construction.
//
// Grammar: entries are separated by commas and trimmed; blank entries are
// skipped; a repeated scalar key keeps its last value; numeric zero values
// are left out of the printed form, which lists keys in table order.
package kv

import (
	"fmt"
	"strconv"
	"strings"
)

// Field binds one key to its destination. Ptr is a *float64, *int, *int64 or
// *uint64. A field without Ptr is custom: Parse receives every value given
// for the key (it may repeat) and Format returns the values to print, one
// key=value entry each.
type Field struct {
	Key    string
	Ptr    any
	Parse  func(val string) error
	Format func() []string
}

// Parse reads spec into the fields' destinations, then runs validate. A
// blank spec sets nothing and is not validated: it means "off". Errors carry
// prefix (the spec's package name); a scalar's error also names its key.
func Parse(prefix, spec string, fields []Field, validate func() error) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, val, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", prefix, entry)
		}
		f := find(fields, key)
		switch {
		case f == nil:
			return fmt.Errorf("%s: unknown key %q", prefix, key)
		case f.Ptr == nil:
			if err := f.Parse(val); err != nil {
				return fmt.Errorf("%s: %w", prefix, err)
			}
		default:
			if err := f.set(val); err != nil {
				return fmt.Errorf("%s: %s: %w", prefix, key, err)
			}
		}
	}
	return validate()
}

// Format renders the fields back into Parse's grammar: the inverse of Parse
// for well-formed specs.
func Format(fields []Field) string {
	var parts []string
	for i := range fields {
		for _, v := range fields[i].values() {
			parts = append(parts, fields[i].Key+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

func find(fields []Field, key string) *Field {
	for i := range fields {
		if fields[i].Key == key {
			return &fields[i]
		}
	}
	return nil
}

func (f *Field) set(val string) (err error) {
	switch p := f.Ptr.(type) {
	case *float64:
		*p, err = strconv.ParseFloat(val, 64)
	case *int:
		*p, err = strconv.Atoi(val)
	case *int64:
		*p, err = strconv.ParseInt(val, 10, 64)
	case *uint64:
		*p, err = strconv.ParseUint(val, 10, 64)
	default:
		panic(fmt.Sprintf("kv: field %q has unsupported type %T", f.Key, f.Ptr))
	}
	return err
}

// values returns the printed values of the field: none for a numeric zero
// (-0 included, as it compares equal to zero).
func (f *Field) values() []string {
	var v string
	switch p := f.Ptr.(type) {
	case nil:
		return f.Format()
	case *float64:
		v = strconv.FormatFloat(*p, 'g', -1, 64)
	case *int:
		v = strconv.Itoa(*p)
	case *int64:
		v = strconv.FormatInt(*p, 10)
	case *uint64:
		v = strconv.FormatUint(*p, 10)
	default:
		panic(fmt.Sprintf("kv: field %q has unsupported type %T", f.Key, f.Ptr))
	}
	if v == "0" || v == "-0" {
		return nil
	}
	return []string{v}
}
