package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVOptions tunes CSV parsing beyond the defaults.
type CSVOptions struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// Comment, when non-zero, makes lines starting with it skipped.
	Comment rune
	// TrimSpace trims surrounding whitespace from every cell.
	TrimSpace bool
}

// ReadCSV loads a relation from CSV data. The first record is the header.
// Attribute types are given by typeSpec, a comma-separated list aligned with
// the header such as "string,string,numeric"; an empty typeSpec makes every
// attribute a string. Numeric cells must parse as float64 (empty cells are
// nulls and allowed).
func ReadCSV(r io.Reader, typeSpec string) (*Relation, error) {
	return ReadCSVOpts(r, typeSpec, CSVOptions{})
}

// ReadCSVOpts is ReadCSV with dialect options.
func ReadCSVOpts(r io.Reader, typeSpec string, opts CSVOptions) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	if opts.Comment != 0 {
		cr.Comment = opts.Comment
	}
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	schema, err := HeaderSchema(header, typeSpec)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: CSV line %d has %d fields, header has %d", line, len(rec), len(header))
		}
		if opts.TrimSpace {
			for i := range rec {
				rec[i] = strings.TrimSpace(rec[i])
			}
		}
		if err := rel.Append(Tuple(rec)); err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
	}
	return rel, nil
}

// HeaderSchema builds the schema of a header row: attribute names are
// trimmed of surrounding space, and typeSpec is a comma-separated list of
// types aligned with the header such as "string,string,numeric" (aliases
// str/s and num/n/number/float/int; an empty spec or entry means string). Every
// relation loaded from a header, as CSV or as header plus rows, is typed
// here.
func HeaderSchema(header []string, typeSpec string) (*Schema, error) {
	attrs := make([]Attribute, len(header))
	for i, name := range header {
		attrs[i] = Attribute{Name: strings.TrimSpace(name), Type: String}
	}
	if typeSpec != "" {
		parts := strings.Split(typeSpec, ",")
		if len(parts) != len(header) {
			return nil, fmt.Errorf("dataset: type spec has %d entries, header has %d columns", len(parts), len(header))
		}
		for i, p := range parts {
			switch strings.TrimSpace(strings.ToLower(p)) {
			case "string", "str", "s", "":
			case "numeric", "num", "n", "number", "float", "int":
				attrs[i].Type = Numeric
			default:
				return nil, fmt.Errorf("dataset: unknown type %q in type spec", p)
			}
		}
	}
	return NewSchema(attrs...)
}

// FromHeader builds a relation from a header, rows and a type spec: the
// inline twin of ReadCSV, typed by the same HeaderSchema.
func FromHeader(header []string, rows [][]string, typeSpec string) (*Relation, error) {
	schema, err := HeaderSchema(header, typeSpec)
	if err != nil {
		return nil, err
	}
	return FromRows(schema, rows)
}

// WriteCSV writes the relation as CSV with a header row.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for i, t := range r.Tuples {
		if err := cw.Write(t); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseFloat parses a numeric cell. It is the single parsing point used by
// distance code so behaviour stays consistent.
func ParseFloat(v string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(v), 64)
}
