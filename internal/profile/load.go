package profile

import (
	"fmt"
	"io"

	"ftrepair/internal/dataset"
)

// Source is a relation to load: CSV text with a header row, or an inline
// header and rows (exactly one of the two), typed by Types.
type Source struct {
	CSV    io.Reader
	Header []string
	Rows   [][]string
	// Types is a comma-separated type spec aligned with the header (see
	// dataset.HeaderSchema); empty means inferred from the data.
	Types string
}

// Load builds the relation src describes. Both input forms are typed by
// dataset.HeaderSchema, and an empty type spec infers the column types
// with Retype. The ftrepair CLI, repaird jobs and repaird sessions all
// load their input here.
func Load(src Source) (*dataset.Relation, error) {
	var rel *dataset.Relation
	var err error
	switch {
	case src.CSV != nil && len(src.Rows) > 0:
		return nil, fmt.Errorf("provide either csv or rows, not both")
	case src.CSV != nil:
		rel, err = dataset.ReadCSV(src.CSV, src.Types)
	case len(src.Rows) > 0:
		if len(src.Header) == 0 {
			return nil, fmt.Errorf("rows requires a header")
		}
		rel, err = dataset.FromHeader(src.Header, src.Rows, src.Types)
	default:
		return nil, fmt.Errorf("no input data: provide csv or header+rows")
	}
	if err != nil {
		return nil, err
	}
	if src.Types == "" {
		rel = Retype(rel)
	}
	return rel, nil
}
