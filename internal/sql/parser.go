package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// TxnKind identifies a transaction-control statement.
type TxnKind int

const (
	// TxnNone: the statement is not transaction control.
	TxnNone TxnKind = iota
	// TxnBegin: BEGIN [TRANSACTION|WORK] / START TRANSACTION.
	TxnBegin
	// TxnCommit: COMMIT [TRANSACTION|WORK].
	TxnCommit
	// TxnRollback: ROLLBACK [TRANSACTION|WORK].
	TxnRollback
)

// Statement is a parsed SQL statement: either DDL (CreateTable,
// AlterTable), DML/DQL (Query), or transaction control (Txn).
type Statement struct {
	CreateTable *schema.Table
	AlterTable  *AlterTable
	Query       *query.Query

	// Txn marks BEGIN/COMMIT/ROLLBACK. Parsing is context-free; whether
	// the control statement is legal (e.g. COMMIT outside a transaction)
	// is the session's concern.
	Txn TxnKind

	// ExplainAnalyze marks an EXPLAIN ANALYZE-wrapped Query: execute it
	// traced and return the per-stage trace as the result set.
	ExplainAnalyze bool
	// Explain marks a plain EXPLAIN-wrapped Query: plan it without
	// executing and return the chosen plan tree as the result set.
	// Only read statements (SELECT and aggregates) can be explained.
	Explain bool
	// ShowMetrics marks SHOW METRICS: return the process metrics
	// registry as a (metric, value) result set.
	ShowMetrics bool

	// Copy marks a COPY t FROM VALUES bulk-ingest statement. Query holds
	// the target table and rows like an INSERT, but execution routes
	// through the engine's bulk-ingest fast path: the whole batch is one
	// WAL group-commit record, applied and made durable atomically.
	Copy bool
}

// AlterTable moves a table into one store (Spec nil) or into a
// partitioned layout (Store is catalog.Partitioned): the statement the
// storage advisor prints, and what engine.Database.MigrateLayout runs.
type AlterTable struct {
	Table string
	Store catalog.StoreKind
	Spec  *catalog.PartitionSpec
}

// ErrLimitZero rejects LIMIT 0: a query.Query's Limit of 0 means no
// limit, so the statement would return every row.
var ErrLimitZero = errors.New("sql: LIMIT 0 is not supported (a LIMIT must be at least 1)")

// Resolver looks up table schemas during parsing; the engine's catalog is
// adapted to it.
type Resolver func(table string) *schema.Table

// Parse parses one SQL statement. Column references are resolved against
// the tables' schemas (combined indexing for joins: left columns first).
// Statements containing '?' parameter placeholders must go through
// Prepare/Bind instead.
func Parse(input string, resolve Resolver) (*Statement, error) {
	pp, err := Prepare(input)
	if err != nil {
		return nil, err
	}
	if pp.NumParams > 0 {
		return nil, fmt.Errorf("sql: statement has %d unbound parameters (use Prepare/Bind)", pp.NumParams)
	}
	return pp.Bind(resolve, nil)
}

// Prepared is a tokenized statement template, possibly containing '?'
// parameter placeholders. Preparing once amortizes lexing across
// executions; Bind substitutes parameters and resolves columns against
// the current catalog, so a prepared statement stays valid across schema
// and layout changes. A Prepared is immutable and safe for concurrent
// Bind calls — the server's statement cache shares one instance across
// sessions.
type Prepared struct {
	// Text is the original statement text.
	Text string
	// NumParams is the number of '?' placeholders.
	NumParams int

	toks []token
}

// Prepare tokenizes a statement and counts its parameter placeholders.
// Syntax and column resolution are checked at Bind time (they depend on
// the live catalog).
func Prepare(input string) (*Prepared, error) {
	toks, err := tokenize(input)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, t := range toks {
		if t.kind == tokPunct && t.text == "?" {
			n++
		}
	}
	return &Prepared{Text: input, NumParams: n, toks: toks}, nil
}

// Bind parses the prepared template with the given parameter values
// substituted for its '?' placeholders (in textual order, coerced to the
// referenced column's type). len(params) must equal NumParams.
func (pp *Prepared) Bind(resolve Resolver, params []value.Value) (*Statement, error) {
	if len(params) != pp.NumParams {
		return nil, fmt.Errorf("sql: statement wants %d parameters, got %d", pp.NumParams, len(params))
	}
	p := &parser{toks: pp.toks, resolve: resolve, params: params}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input at position %d: %q", p.peek().pos, p.peek().text)
	}
	return st, nil
}

type parser struct {
	toks    []token
	i       int
	resolve Resolver

	// Parameter values bound to '?' placeholders, consumed in textual
	// order.
	params   []value.Value
	paramIdx int

	// Column resolution context for the current statement.
	left      *schema.Table
	right     *schema.Table // set when a JOIN is present
	leftName  string
	rightName string
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// isKeyword reports whether the next token is the given keyword.
func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s at position %d, got %q", kw, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("sql: expected %q at position %d, got %q", s, t.pos, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier at position %d, got %q", t.pos, t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) statement() (*Statement, error) {
	switch {
	case p.isKeyword("EXPLAIN"):
		p.advance()
		analyze := p.isKeyword("ANALYZE")
		if analyze {
			p.advance()
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		if st.Query == nil || st.Copy || st.ExplainAnalyze || st.Explain || st.ShowMetrics {
			if analyze {
				return nil, fmt.Errorf("sql: EXPLAIN ANALYZE wants a SELECT/INSERT/UPDATE/DELETE statement")
			}
			return nil, fmt.Errorf("sql: EXPLAIN wants a SELECT statement")
		}
		if analyze {
			st.ExplainAnalyze = true
			return st, nil
		}
		if st.Query.Kind != query.Select && st.Query.Kind != query.Aggregate {
			return nil, fmt.Errorf("sql: EXPLAIN plans read statements only (use EXPLAIN ANALYZE for DML)")
		}
		st.Explain = true
		return st, nil
	case p.isKeyword("SHOW"):
		p.advance()
		if err := p.expectKeyword("METRICS"); err != nil {
			return nil, err
		}
		return &Statement{ShowMetrics: true}, nil
	case p.isKeyword("CREATE"):
		sch, err := p.createTable()
		if err != nil {
			return nil, err
		}
		return &Statement{CreateTable: sch}, nil
	case p.isKeyword("ALTER"):
		at, err := p.alterTable()
		if err != nil {
			return nil, err
		}
		return &Statement{AlterTable: at}, nil
	case p.isKeyword("SELECT"):
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	case p.isKeyword("INSERT"):
		q, err := p.insertStmt()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	case p.isKeyword("COPY"):
		q, err := p.insertStmt()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q, Copy: true}, nil
	case p.isKeyword("UPDATE"):
		q, err := p.updateStmt()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	case p.isKeyword("DELETE"):
		q, err := p.deleteStmt()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	case p.isKeyword("BEGIN"):
		p.advance()
		p.acceptTxnNoise()
		return &Statement{Txn: TxnBegin}, nil
	case p.isKeyword("START"):
		p.advance()
		if err := p.expectKeyword("TRANSACTION"); err != nil {
			return nil, err
		}
		return &Statement{Txn: TxnBegin}, nil
	case p.isKeyword("COMMIT"):
		p.advance()
		p.acceptTxnNoise()
		return &Statement{Txn: TxnCommit}, nil
	case p.isKeyword("ROLLBACK"):
		p.advance()
		p.acceptTxnNoise()
		return &Statement{Txn: TxnRollback}, nil
	default:
		return nil, fmt.Errorf("sql: expected statement at position %d, got %q", p.peek().pos, p.peek().text)
	}
}

// acceptTxnNoise consumes the optional TRANSACTION/WORK keyword after
// BEGIN/COMMIT/ROLLBACK.
func (p *parser) acceptTxnNoise() {
	if !p.acceptKeyword("TRANSACTION") {
		p.acceptKeyword("WORK")
	}
}

// createTable parses CREATE TABLE name (col TYPE [NOT NULL], ...,
// [PRIMARY KEY (a, b)]).
func (p *parser) createTable() (*schema.Table, error) {
	p.advance() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []schema.Column
	var pk []string
	for {
		if p.isKeyword("PRIMARY") {
			p.advance()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for {
				k, err := p.ident()
				if err != nil {
					return nil, err
				}
				pk = append(pk, k)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		} else {
			cname, err := p.ident()
			if err != nil {
				return nil, err
			}
			tname, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := value.ParseType(strings.ToUpper(tname))
			if err != nil {
				return nil, err
			}
			col := schema.Column{Name: cname, Type: typ, Nullable: true}
			if p.acceptKeyword("NOT") {
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				col.Nullable = false
			}
			cols = append(cols, col)
		}
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// Primary-key columns are implicitly NOT NULL.
	sch, err := schema.New(name, cols, pk...)
	if err != nil {
		return nil, err
	}
	for _, k := range sch.PrimaryKey {
		sch.Columns[k].Nullable = false
	}
	return sch, nil
}

// alterTable parses the statements the storage advisor prints:
//
//	ALTER TABLE t MOVE TO {ROW|COLUMN} STORE
//	ALTER TABLE t PARTITION BY RANGE (c) (PARTITION hot VALUES >= lit STORE s,
//	    PARTITION historic STORE s [VERTICAL (...)])
//	ALTER TABLE t PARTITION BY VERTICAL ((cols) STORE ROW, (cols) STORE COLUMN)
//
// ROWID names the hidden key of a table declared without a primary key.
func (p *parser) alterTable() (*AlterTable, error) {
	p.advance() // ALTER
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	if err := p.target(); err != nil {
		return nil, err
	}
	var err error
	// Each step below is a no-op once err is set.
	expect := func(items ...string) {
		for _, s := range items {
			switch {
			case err != nil:
			case isIdentStart(s[0]):
				err = p.expectKeyword(s)
			default:
				err = p.expectPunct(s)
			}
		}
	}
	store := func() (k catalog.StoreKind) {
		switch {
		case err != nil, p.acceptKeyword("ROW"):
		case p.acceptKeyword("COLUMN"):
			k = catalog.ColumnStore
		default:
			err = fmt.Errorf("sql: expected ROW or COLUMN at position %d, got %q", p.peek().pos, p.peek().text)
		}
		return k
	}
	col := func() (c int) {
		var name string
		if err == nil {
			name, err = p.ident()
		}
		if strings.EqualFold(name, "ROWID") && p.left.ColIndex(name) < 0 && p.left.ColIndex(schema.RowKey) >= 0 {
			name = schema.RowKey
		}
		if err == nil {
			c, err = p.resolveColumn("", name)
		}
		return c
	}
	cols := func() []int {
		out := []int{col()}
		for err == nil && p.acceptPunct(",") {
			out = append(out, col())
		}
		return out
	}
	vertical := func() *catalog.VerticalSpec {
		v := &catalog.VerticalSpec{}
		expect("VERTICAL", "(", "(")
		v.RowCols = cols()
		expect(")", "STORE", "ROW", ",", "(")
		v.ColCols = cols()
		expect(")", "STORE", "COLUMN", ")")
		return v
	}

	at := &AlterTable{Table: p.leftName}
	if p.acceptKeyword("MOVE") {
		expect("TO")
		at.Store = store()
		expect("STORE")
		return at, err
	}
	expect("PARTITION", "BY")
	at.Store, at.Spec = catalog.Partitioned, &catalog.PartitionSpec{}
	if err == nil && !p.acceptKeyword("RANGE") {
		at.Spec.Vertical = vertical()
	} else {
		h := &catalog.HorizontalSpec{}
		expect("(")
		h.SplitCol = col()
		expect(")", "(", "PARTITION", "hot", "VALUES", ">=")
		if err == nil {
			h.SplitVal, err = p.typedLiteral(h.SplitCol)
		}
		expect("STORE")
		h.HotStore = store()
		expect(",", "PARTITION", "historic", "STORE")
		h.ColdStore = store()
		if err == nil && p.isKeyword("VERTICAL") {
			at.Spec.Vertical = vertical()
		}
		expect(")")
		at.Spec.Horizontal = h
	}
	if err == nil {
		err = at.Spec.Validate(p.left)
	}
	return at, err
}

// target parses the name of the one table a statement writes or alters,
// resolves it and makes its columns the ones in scope.
func (p *parser) target() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	sch, err := p.lookupTable(name)
	if err != nil {
		return err
	}
	p.left, p.leftName, p.right = sch, name, nil
	return nil
}

// lookupTable resolves a schema.
func (p *parser) lookupTable(name string) (*schema.Table, error) {
	if p.resolve == nil {
		return nil, fmt.Errorf("sql: no schema resolver configured")
	}
	sch := p.resolve(name)
	if sch == nil {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return sch, nil
}

// resolveColumn maps a (qualified) column name to its combined index.
func (p *parser) resolveColumn(qualifier, name string) (int, error) {
	switch {
	case qualifier != "":
		if strings.EqualFold(qualifier, p.leftName) {
			if i := p.left.ColIndex(name); i >= 0 {
				return i, nil
			}
			return 0, fmt.Errorf("sql: unknown column %s.%s", qualifier, name)
		}
		if p.right != nil && strings.EqualFold(qualifier, p.rightName) {
			if i := p.right.ColIndex(name); i >= 0 {
				return p.left.NumColumns() + i, nil
			}
			return 0, fmt.Errorf("sql: unknown column %s.%s", qualifier, name)
		}
		return 0, fmt.Errorf("sql: unknown table qualifier %q", qualifier)
	default:
		if i := p.left.ColIndex(name); i >= 0 {
			if p.right != nil && p.right.ColIndex(name) >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", name)
			}
			return i, nil
		}
		if p.right != nil {
			if i := p.right.ColIndex(name); i >= 0 {
				return p.left.NumColumns() + i, nil
			}
		}
		return 0, fmt.Errorf("sql: unknown column %q", name)
	}
}

// columnRef parses ident[.ident] and resolves it.
func (p *parser) columnRef() (int, error) {
	first, err := p.ident()
	if err != nil {
		return 0, err
	}
	if p.acceptPunct(".") {
		second, err := p.ident()
		if err != nil {
			return 0, err
		}
		return p.resolveColumn(first, second)
	}
	return p.resolveColumn("", first)
}

// columnType returns the value type of a combined column index.
func (p *parser) columnType(idx int) value.Type {
	if idx < p.left.NumColumns() {
		return p.left.Columns[idx].Type
	}
	return p.right.Columns[idx-p.left.NumColumns()].Type
}

// literal parses a (possibly negated) literal value or a '?' parameter
// placeholder.
func (p *parser) literal() (value.Value, error) {
	if p.peek().kind == tokPunct && p.peek().text == "?" {
		pos := p.peek().pos
		p.advance()
		if p.paramIdx >= len(p.params) {
			return value.Value{}, fmt.Errorf("sql: unbound parameter at position %d", pos)
		}
		v := p.params[p.paramIdx]
		p.paramIdx++
		return v, nil
	}
	neg := false
	if p.acceptPunct("-") {
		neg = true
	} else {
		p.acceptPunct("+")
	}
	if neg && p.peek().kind == tokPunct && p.peek().text == "?" {
		return value.Value{}, fmt.Errorf("sql: cannot negate a parameter")
	}
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return value.Value{}, fmt.Errorf("sql: bad number %q", t.text)
			}
			if neg {
				f = -f
			}
			return value.NewDouble(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("sql: bad integer %q", t.text)
		}
		if neg {
			n = -n
		}
		return value.NewBigint(n), nil
	case tokString:
		if neg {
			return value.Value{}, fmt.Errorf("sql: cannot negate a string")
		}
		p.advance()
		return value.NewVarchar(t.text), nil
	case tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			if neg {
				return value.Value{}, fmt.Errorf("sql: cannot negate NULL")
			}
			p.advance()
			return value.Null(value.Varchar), nil
		}
	}
	return value.Value{}, fmt.Errorf("sql: expected literal at position %d, got %q", t.pos, t.text)
}

// typedLiteral parses a literal and coerces it to the column's type.
func (p *parser) typedLiteral(col int) (value.Value, error) {
	v, err := p.literal()
	if err != nil {
		return value.Value{}, err
	}
	t := p.columnType(col)
	if v.IsNull() {
		return value.Null(t), nil
	}
	cv, err := value.Coerce(v, t)
	if err != nil {
		return value.Value{}, err
	}
	return cv, nil
}

// wherePredicate parses a WHERE expression.
func (p *parser) wherePredicate() (expr.Predicate, error) {
	return p.orExpr()
}

func (p *parser) orExpr() (expr.Predicate, error) {
	first, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	preds := []expr.Predicate{first}
	for p.acceptKeyword("OR") {
		next, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		preds = append(preds, next)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return &expr.Or{Preds: preds}, nil
}

func (p *parser) andExpr() (expr.Predicate, error) {
	first, err := p.primaryPred()
	if err != nil {
		return nil, err
	}
	preds := []expr.Predicate{first}
	for p.acceptKeyword("AND") {
		next, err := p.primaryPred()
		if err != nil {
			return nil, err
		}
		preds = append(preds, next)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return &expr.And{Preds: preds}, nil
}

func (p *parser) primaryPred() (expr.Predicate, error) {
	if p.acceptKeyword("NOT") {
		sub, err := p.primaryPred()
		if err != nil {
			return nil, err
		}
		return &expr.Not{P: sub}, nil
	}
	if p.acceptPunct("(") {
		sub, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return sub, nil
	}
	col, err := p.columnRef()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.typedLiteral(col)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.typedLiteral(col)
		if err != nil {
			return nil, err
		}
		return &expr.Between{Col: col, Lo: lo, Hi: hi}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var vals []value.Value
		for {
			v, err := p.typedLiteral(col)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &expr.In{Col: col, Vals: vals}, nil
	default:
		t := p.peek()
		if t.kind != tokPunct {
			return nil, fmt.Errorf("sql: expected comparison operator at position %d", t.pos)
		}
		var op expr.CmpOp
		switch t.text {
		case "=":
			op = expr.Eq
		case "<>":
			op = expr.Ne
		case "<":
			op = expr.Lt
		case "<=":
			op = expr.Le
		case ">":
			op = expr.Gt
		case ">=":
			op = expr.Ge
		default:
			return nil, fmt.Errorf("sql: bad operator %q at position %d", t.text, t.pos)
		}
		p.advance()
		v, err := p.typedLiteral(col)
		if err != nil {
			return nil, err
		}
		return &expr.Comparison{Col: col, Op: op, Val: v}, nil
	}
}

// selectStmt parses SELECT ... FROM ... [JOIN ... ON ...] [WHERE ...]
// [GROUP BY ...] [LIMIT n].
func (p *parser) selectStmt() (*query.Query, error) {
	p.advance() // SELECT
	// Scan ahead: the select list is parsed after FROM resolves schemas, so
	// remember its token range and re-parse.
	listStart := p.i
	depth := 0
	for {
		t := p.peek()
		if t.kind == tokEOF {
			return nil, fmt.Errorf("sql: missing FROM clause")
		}
		if t.kind == tokPunct && t.text == "(" {
			depth++
		}
		if t.kind == tokPunct && t.text == ")" {
			depth--
		}
		if depth == 0 && t.kind == tokIdent && strings.EqualFold(t.text, "FROM") {
			break
		}
		p.advance()
	}
	listEnd := p.i
	p.advance() // FROM
	leftName, err := p.ident()
	if err != nil {
		return nil, err
	}
	left, err := p.lookupTable(leftName)
	if err != nil {
		return nil, err
	}
	p.left, p.leftName = left, leftName
	p.right, p.rightName = nil, ""

	q := &query.Query{Table: leftName}
	if p.acceptKeyword("JOIN") {
		rightName, err := p.ident()
		if err != nil {
			return nil, err
		}
		right, err := p.lookupTable(rightName)
		if err != nil {
			return nil, err
		}
		p.right, p.rightName = right, rightName
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		c1, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		c2, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		if lt, rt := p.columnType(c1), p.columnType(c2); !value.JoinComparable(lt, rt) {
			return nil, fmt.Errorf("sql: cannot join columns of types %s and %s", lt, rt)
		}
		nL := left.NumColumns()
		// Normalize to (leftCol, rightCol-local).
		switch {
		case c1 < nL && c2 >= nL:
			q.Join = &query.Join{Table: rightName, LeftCol: c1, RightCol: c2 - nL}
		case c2 < nL && c1 >= nL:
			q.Join = &query.Join{Table: rightName, LeftCol: c2, RightCol: c1 - nL}
		default:
			return nil, fmt.Errorf("sql: join condition must compare columns of both tables")
		}
	}

	// Parse the saved select list with schemas in scope.
	savedI := p.i
	p.i = listStart
	aggs, cols, star, err := p.selectList(listEnd)
	if err != nil {
		return nil, err
	}
	p.i = savedI

	if p.acceptKeyword("WHERE") {
		pred, err := p.wherePredicate()
		if err != nil {
			return nil, err
		}
		q.Pred = pred
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			o := query.Order{Col: c}
			if p.acceptKeyword("DESC") {
				o.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, o)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: LIMIT expects a number")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		if n == 0 {
			return nil, ErrLimitZero
		}
		p.advance()
		q.Limit = n
	}

	if len(aggs) > 0 {
		q.Kind = query.Aggregate
		q.Aggs = aggs
		for _, o := range q.OrderBy {
			if !containsInt(q.GroupBy, o.Col) {
				return nil, fmt.Errorf("sql: ORDER BY column %d of an aggregate query must appear in GROUP BY", o.Col)
			}
		}
		if len(cols) > 0 {
			// Plain columns in an aggregate query must be grouped.
			for _, c := range cols {
				if !containsInt(q.GroupBy, c) {
					return nil, fmt.Errorf("sql: column %d selected but not grouped", c)
				}
			}
		}
		if len(q.GroupBy) == 0 && len(cols) > 0 {
			return nil, fmt.Errorf("sql: mixing aggregates and columns requires GROUP BY")
		}
	} else {
		q.Kind = query.Select
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: GROUP BY requires aggregates")
		}
		if !star {
			q.Cols = cols
		}
	}
	return q, nil
}

// selectList parses the projection between SELECT and FROM. It returns
// aggregate specs, plain column refs and whether '*' appeared.
func (p *parser) selectList(end int) ([]agg.Spec, []int, bool, error) {
	var aggs []agg.Spec
	var cols []int
	star := false
	for p.i < end {
		t := p.peek()
		if t.kind == tokPunct && t.text == "*" {
			star = true
			p.advance()
		} else if t.kind == tokIdent && p.i+1 < end && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "(" {
			fn, err := agg.ParseFunc(strings.ToUpper(t.text))
			if err != nil {
				return nil, nil, false, err
			}
			p.advance() // func name
			p.advance() // (
			if p.peek().kind == tokPunct && p.peek().text == "*" {
				if fn != agg.Count {
					return nil, nil, false, fmt.Errorf("sql: %s(*) is not valid", fn)
				}
				p.advance()
				aggs = append(aggs, agg.Spec{Func: agg.Count, Col: -1})
			} else {
				c, err := p.columnRef()
				if err != nil {
					return nil, nil, false, err
				}
				if typ := p.columnType(c); (fn == agg.Sum || fn == agg.Avg) && !typ.Numeric() {
					return nil, nil, false, fmt.Errorf("sql: %s over a %s column", fn, typ)
				}
				aggs = append(aggs, agg.Spec{Func: fn, Col: c})
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, nil, false, err
			}
		} else {
			c, err := p.columnRef()
			if err != nil {
				return nil, nil, false, err
			}
			cols = append(cols, c)
		}
		if p.i < end && !p.acceptPunct(",") {
			return nil, nil, false, fmt.Errorf("sql: expected ',' in select list at position %d", p.peek().pos)
		}
	}
	if !star && len(aggs) == 0 && len(cols) == 0 {
		return nil, nil, false, fmt.Errorf("sql: empty select list")
	}
	return aggs, cols, star, nil
}

// insertStmt parses INSERT INTO t VALUES (...), (...) and COPY t FROM
// VALUES (...), (...), the bulk-ingest statement: one grammar, two
// execution paths (COPY's whole batch is one atomic WAL record).
func (p *parser) insertStmt() (*query.Query, error) {
	bulk := p.isKeyword("COPY")
	p.advance() // INSERT or COPY
	if !bulk {
		if err := p.expectKeyword("INTO"); err != nil {
			return nil, err
		}
	}
	if err := p.target(); err != nil {
		return nil, err
	}
	if bulk {
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	rows, err := p.valuesRows()
	if err != nil {
		return nil, err
	}
	return &query.Query{Kind: query.Insert, Table: p.leftName, Rows: rows}, nil
}

// valuesRows parses the (...), (...) literal-row list shared by INSERT
// and COPY, enforcing the arity of the target's declared columns on every
// row.
func (p *parser) valuesRows() ([][]value.Value, error) {
	sch, name := p.left, p.leftName
	var rows [][]value.Value
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []value.Value
		for col := 0; ; col++ {
			if col >= sch.Visible() {
				return nil, fmt.Errorf("sql: too many values for table %q", name)
			}
			v, err := p.typedLiteral(col)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if len(row) != sch.Visible() {
			return nil, fmt.Errorf("sql: table %q expects %d values, got %d", name, sch.Visible(), len(row))
		}
		rows = append(rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	return rows, nil
}

// updateStmt parses UPDATE t SET col = lit, ... [WHERE ...].
func (p *parser) updateStmt() (*query.Query, error) {
	p.advance() // UPDATE
	if err := p.target(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	q := &query.Query{Kind: query.Update, Table: p.leftName, Set: map[int]value.Value{}}
	for {
		c, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.typedLiteral(c)
		if err != nil {
			return nil, err
		}
		q.Set[c] = v
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		pred, err := p.wherePredicate()
		if err != nil {
			return nil, err
		}
		q.Pred = pred
	}
	return q, nil
}

// deleteStmt parses DELETE FROM t [WHERE ...].
func (p *parser) deleteStmt() (*query.Query, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.target(); err != nil {
		return nil, err
	}
	q := &query.Query{Kind: query.Delete, Table: p.leftName}
	if p.acceptKeyword("WHERE") {
		pred, err := p.wherePredicate()
		if err != nil {
			return nil, err
		}
		q.Pred = pred
	}
	return q, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ParseScript splits a multi-statement script on semicolons (respecting
// string literals) and parses each statement. Empty statements and line
// comments starting with "--" are skipped.
func ParseScript(script string, resolve Resolver) ([]*Statement, error) {
	var stmts []*Statement
	for _, raw := range SplitStatements(script) {
		st, err := Parse(raw, resolve)
		if err != nil {
			return nil, fmt.Errorf("%w (in statement %q)", err, truncate(raw, 60))
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

// SplitStatements splits a script into individual statements on
// semicolons, honoring quoted strings and stripping "--" comments.
func SplitStatements(script string) []string {
	var out []string
	var b strings.Builder
	inString := false
	lines := strings.Split(script, "\n")
	for _, line := range lines {
		// Strip comments outside strings.
		if !inString {
			if idx := strings.Index(line, "--"); idx >= 0 && !insideString(line[:idx]) {
				line = line[:idx]
			}
		}
		for i := 0; i < len(line); i++ {
			c := line[i]
			if c == '\'' {
				inString = !inString
			}
			if c == ';' && !inString {
				s := strings.TrimSpace(b.String())
				if s != "" {
					out = append(out, s)
				}
				b.Reset()
				continue
			}
			b.WriteByte(c)
		}
		b.WriteByte('\n')
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}

func insideString(s string) bool {
	return strings.Count(s, "'")%2 == 1
}

func truncate(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
