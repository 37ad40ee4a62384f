package engine

import (
	"fmt"
	"strings"

	"mtcache/internal/catalog"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

func (db *Database) execCreateTable(x *sql.CreateTableStmt) (*Result, error) {
	t := &catalog.Table{Name: x.Name}
	for _, cd := range x.Columns {
		t.Columns = append(t.Columns, catalog.Column{
			Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull, Default: cd.Default,
		})
		if cd.PrimaryKey {
			t.PrimaryKey = append(t.PrimaryKey, len(t.Columns)-1)
		}
	}
	for _, pk := range x.PrimaryKey {
		ord := -1
		for i, c := range t.Columns {
			if strEqualFold(c.Name, pk) {
				ord = i
				break
			}
		}
		if ord < 0 {
			return nil, fmt.Errorf("engine: PRIMARY KEY column %s not in table", pk)
		}
		t.PrimaryKey = append(t.PrimaryKey, ord)
	}
	if err := db.cat.AddTable(t); err != nil {
		return nil, err
	}
	if err := db.store.CreateTable(t); err != nil {
		db.cat.DropTable(t.Name)
		return nil, err
	}
	db.InvalidatePlans()
	return &Result{}, nil
}

func (db *Database) execCreateIndex(x *sql.CreateIndexStmt) (*Result, error) {
	t := db.cat.Table(x.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: table %s does not exist", x.Table)
	}
	idx := &catalog.Index{Name: x.Name, Table: t.Name, Unique: x.Unique}
	for _, col := range x.Columns {
		ord := t.ColumnIndex(col)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %s not in %s", col, x.Table)
		}
		idx.Columns = append(idx.Columns, ord)
	}
	if err := db.cat.AddIndex(t.Name, idx); err != nil {
		return nil, err
	}
	if db.store.Table(t.Name) != nil {
		if err := db.store.AddIndex(t.Name, idx); err != nil {
			return nil, err
		}
	}
	db.InvalidatePlans()
	return &Result{}, nil
}

func (db *Database) execCreateView(x *sql.CreateViewStmt) (*Result, error) {
	if x.Cached && db.role != Cache {
		return nil, fmt.Errorf("engine: CREATE CACHED VIEW is only valid on a cache server")
	}
	// Infer the view schema from its definition.
	cols, err := db.viewSchema(x.Select)
	if err != nil {
		return nil, err
	}
	t := &catalog.Table{
		Name:         x.Name,
		Columns:      cols,
		IsView:       true,
		Materialized: x.Materialized || x.Cached,
		Cached:       x.Cached,
		ViewDef:      x.Select,
	}
	if t.Materialized {
		t.PrimaryKey = derivePK(db.cat, x.Select, cols)
	}
	if !t.Materialized {
		if err := db.cat.AddTable(t); err != nil {
			return nil, err
		}
		db.InvalidatePlans()
		return &Result{}, nil
	}

	// Materialized (or cached) view: compute the initial contents *before*
	// registering the view, so the population query cannot be answered from
	// the still-empty view itself.
	var initial []types.Row
	if !x.Cached {
		res, err := db.Query(x.Select, nil)
		if err != nil {
			return nil, fmt.Errorf("engine: populating %s: %w", t.Name, err)
		}
		initial = res.Rows
	}
	if err := db.cat.AddTable(t); err != nil {
		return nil, err
	}
	if err := db.store.CreateTable(t); err != nil {
		db.cat.DropTable(t.Name)
		return nil, err
	}
	if x.Cached {
		// Cached views are populated and maintained by replication; hand off
		// to the MTCache layer to create the matching subscription (§4).
		if db.onCachedViewCreate != nil {
			if err := db.onCachedViewCreate(t); err != nil {
				db.cat.DropTable(t.Name)
				db.store.DropTable(t.Name)
				return nil, fmt.Errorf("engine: provisioning cached view %s: %w", t.Name, err)
			}
		}
	} else {
		tx := db.store.Begin(true)
		for _, row := range initial {
			if _, err := tx.Insert(t.Name, row); err != nil {
				tx.Abort()
				db.cat.DropTable(t.Name)
				db.store.DropTable(t.Name)
				return nil, err
			}
		}
		// Initial population is not replicated as individual changes.
		if err := tx.CommitUnlogged(); err != nil {
			return nil, err
		}
	}
	if err := db.AnalyzeTable(t.Name); err != nil {
		return nil, err
	}
	db.InvalidatePlans()
	return &Result{}, nil
}

// viewSchema infers the column list of a view definition. Select-project
// definitions resolve directly against the base table; anything else is
// planned for its schema.
func (db *Database) viewSchema(def *sql.SelectStmt) ([]catalog.Column, error) {
	if len(def.From) == 1 {
		if tn, ok := def.From[0].(*sql.TableName); ok {
			base := db.cat.Table(tn.Name)
			if base != nil {
				var cols []catalog.Column
				simple := true
				for _, item := range def.Columns {
					if item.Star {
						cols = append(cols, base.Columns...)
						continue
					}
					ref, ok := item.Expr.(*sql.ColumnRef)
					if !ok {
						simple = false
						break
					}
					bc := base.Column(ref.Name)
					if bc == nil {
						return nil, fmt.Errorf("engine: view column %s not in %s", ref.Name, base.Name)
					}
					name := item.Alias
					if name == "" {
						name = bc.Name
					}
					cols = append(cols, catalog.Column{Name: name, Type: bc.Type, NotNull: bc.NotNull})
				}
				if simple {
					return cols, nil
				}
			}
		}
	}
	p, err := opt.Optimize(def, db.env())
	if err != nil {
		return nil, fmt.Errorf("engine: invalid view definition: %w", err)
	}
	var cols []catalog.Column
	for _, c := range p.Cols {
		cols = append(cols, catalog.Column{Name: c.Name, Type: c.Kind})
	}
	return cols, nil
}

// derivePK keeps the base table's primary key on a materialized view when
// the projection preserves all key columns.
func derivePK(cat *catalog.Catalog, def *sql.SelectStmt, cols []catalog.Column) []int {
	if len(def.From) != 1 {
		return nil
	}
	tn, ok := def.From[0].(*sql.TableName)
	if !ok {
		return nil
	}
	base := cat.Table(tn.Name)
	if base == nil || len(base.PrimaryKey) == 0 {
		return nil
	}
	var pk []int
	for _, ord := range base.PrimaryKey {
		baseName := base.Columns[ord].Name
		// Find the view column projecting this base column.
		found := -1
		for i, item := range def.Columns {
			if item.Star {
				// identity projection: position = base ordinal
				if ord < len(cols) && strEqualFold(cols[ord].Name, baseName) {
					found = ord
				}
				break
			}
			ref, ok := item.Expr.(*sql.ColumnRef)
			if ok && strEqualFold(ref.Name, baseName) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil
		}
		pk = append(pk, found)
	}
	return pk
}

func (db *Database) execCreateProc(x *sql.CreateProcStmt, text string) (*Result, error) {
	p := &catalog.Procedure{Name: x.Name, Params: x.Params, Body: x.Body, Text: text}
	if err := db.cat.AddProcedure(p); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execDrop(x *sql.DropStmt) (*Result, error) {
	switch x.What {
	case "TABLE", "VIEW":
		t := db.cat.Table(x.Name)
		if t == nil {
			return nil, fmt.Errorf("engine: %s %s does not exist", strings.ToLower(x.What), x.Name)
		}
		if err := db.cat.DropTable(x.Name); err != nil {
			return nil, err
		}
		if db.store.Table(x.Name) != nil {
			db.store.DropTable(x.Name)
		}
		// Cached results derived from the dropped relation are now orphans.
		db.InvalidateCachedResults(t.Name)
	case "PROCEDURE":
		if err := db.cat.DropProcedure(x.Name); err != nil {
			return nil, err
		}
	case "INDEX":
		return nil, fmt.Errorf("engine: DROP INDEX is not supported")
	}
	db.InvalidatePlans()
	return &Result{}, nil
}
