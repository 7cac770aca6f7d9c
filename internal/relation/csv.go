package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSV layout: a header row "id,score,x1,...,xd[,attr...]" followed by one
// row per tuple. Columns after the vector components are treated as named
// attributes keyed by their header.

// WriteCSV serializes r to w.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	header := []string{"id", "score"}
	for i := 0; i < r.Dim(); i++ {
		header = append(header, fmt.Sprintf("x%d", i+1))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < r.Len(); i++ {
		t := r.At(i)
		rec := []string{t.ID, strconv.FormatFloat(t.Score, 'g', -1, 64)}
		for _, x := range t.Vec {
			rec = append(rec, strconv.FormatFloat(x, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation from r. maxScore is the relation's σ_max;
// pass 0 to use the largest score found.
func ReadCSV(rd io.Reader, name string, maxScore float64) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation csv %q: header: %w", name, err)
	}
	if len(header) < 3 || strings.ToLower(header[0]) != "id" || strings.ToLower(header[1]) != "score" {
		return nil, fmt.Errorf("relation csv %q: header must start with id,score,x1,...", name)
	}
	// Vector columns are the contiguous run of x1..xd; anything after is an
	// attribute column.
	dim := 0
	for i := 2; i < len(header); i++ {
		if strings.HasPrefix(strings.ToLower(header[i]), "x") {
			dim++
		} else {
			break
		}
	}
	if dim == 0 {
		return nil, fmt.Errorf("relation csv %q: no vector columns", name)
	}
	attrCols := header[2+dim:]

	var tuples []Tuple
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation csv %q line %d: %w", name, line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation csv %q line %d: %d fields, want %d", name, line, len(rec), len(header))
		}
		score, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("relation csv %q line %d: bad score %q", name, line, rec[1])
		}
		v := make([]float64, dim)
		for j := 0; j < dim; j++ {
			v[j], err = strconv.ParseFloat(rec[2+j], 64)
			if err != nil {
				return nil, fmt.Errorf("relation csv %q line %d: bad component %q", name, line, rec[2+j])
			}
		}
		t := Tuple{ID: rec[0], Score: score, Vec: v}
		if len(attrCols) > 0 {
			t.Attrs = make(map[string]string, len(attrCols))
			for j, col := range attrCols {
				t.Attrs[col] = rec[2+dim+j]
			}
		}
		tuples = append(tuples, t)
	}
	if maxScore == 0 {
		for _, t := range tuples {
			if t.Score > maxScore {
				maxScore = t.Score
			}
		}
	}
	return New(name, maxScore, tuples)
}

// LoadCSVFile reads a relation from a CSV file, naming it after the path's
// base name when name is empty.
func LoadCSVFile(path, name string, maxScore float64) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if name == "" {
		name = filepath.Base(path)
	}
	return ReadCSV(f, name, maxScore)
}

// SaveCSVFile writes a relation to a CSV file.
func SaveCSVFile(path string, r *Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
