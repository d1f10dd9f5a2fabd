package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"netdiversity/internal/experiments"
	"netdiversity/internal/nvdgen"
	"netdiversity/internal/vulnsim"
)

// tablesCmd regenerates the tables and figures of the paper's evaluation
// section and the library's own experiments (README "Experiments").
func tablesCmd(fs *flag.FlagSet, c *common) func(io.Writer) error {
	expList := fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	full := fs.Bool("full", false, "use the paper-sized (slow) experiment profile")
	list := fs.Bool("list", false, "list available experiments and exit")
	return func(out io.Writer) error {
		if *list {
			_, err := fmt.Fprintln(out, strings.Join(experiments.IDs(), "\n"))
			return err
		}
		ids := experiments.IDs()
		if *expList != "all" {
			ids = ids[:0:0]
			for _, id := range strings.Split(*expList, ",") {
				if id = strings.TrimSpace(id); id != "" {
					ids = append(ids, id)
				}
			}
		}
		if len(ids) == 0 {
			return fmt.Errorf("no experiments selected")
		}
		cfg := experiments.Config{Full: *full, Seed: c.seed}
		for _, id := range ids {
			table, err := experiments.Run(id, cfg)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			if _, err := fmt.Fprintln(out, table.Render()); err != nil {
				return err
			}
		}
		return nil
	}
}

// simtableCmd prints a vulnerability-similarity table: one the paper
// publishes (Tables II/III and the case-study database table), or with
// -recompute the same table rebuilt from a synthetic NVD-style CVE corpus
// through the full CVE -> CPE -> Jaccard pipeline.
func simtableCmd(fs *flag.FlagSet, _ *common) func(io.Writer) error {
	which := fs.String("table", "os", "which table: os, browser, database, merged")
	recompute := fs.Bool("recompute", false, "regenerate the table from a synthetic NVD corpus instead of printing the published values")
	asJSON := fs.Bool("json", false, "emit the table as JSON instead of text")
	fromYear := fs.Int("from-year", 0, "only count vulnerabilities published in or after this year (recompute mode)")
	toYear := fs.Int("to-year", 0, "only count vulnerabilities published in or before this year (recompute mode)")
	return func(out io.Writer) error {
		published := map[string]func() *vulnsim.SimilarityTable{
			"os":       vulnsim.PaperOSTable,
			"browser":  vulnsim.PaperBrowserTable,
			"database": vulnsim.PaperDatabaseTable,
			"merged":   vulnsim.PaperSimilarity,
		}
		table, ok := published[*which]
		if !ok {
			return fmt.Errorf("unknown table %q (want os, browser, database or merged)", *which)
		}
		t := table()
		if *recompute {
			db, err := nvdgen.FromSimilarityTable(t, 1999)
			if err != nil {
				return err
			}
			t = vulnsim.BuildSimilarityTable(db, t.Products(), vulnsim.VulnFilter{FromYear: *fromYear, ToYear: *toYear})
			fmt.Fprintf(out, "# recomputed from a synthetic corpus of %d CVE records\n", db.Len())
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			return enc.Encode(t)
		}
		return t.Render(out)
	}
}
