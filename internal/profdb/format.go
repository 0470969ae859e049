package profdb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"inlinec/internal/ir"
	"inlinec/internal/profile"
)

// On-disk formats, version 1. Both are line-oriented text in the spirit
// of the legacy ILPROF interface.
//
// Database file:
//
//	ILPROFDB 1
//	program <name>
//	record <fingerprint> <gen>
//	runs <n>
//	il <n>
//	control <n>
//	calls <n>
//	returns <n>
//	extern <n>
//	ptr <n>
//	truncated <n>
//	maxstack <n>
//	samplerate <k>          (optional; k>0 sampled, -1 mixed, omitted exact)
//	func <name> <total-count>
//	site <caller> <callee> <ordinal> <poshash> <total-count>
//	target <caller> <callee> <ordinal> <poshash> <target-func> <total-count>
//	end
//	record ...
//
// Snapshot (one record, the ilprofd ingest/serve payload):
//
//	ILPROFSNAP 1
//	program <name>
//	fingerprint <fp>
//	gen <n>
//	runs <n>
//	... same record body, no "end" ...
//
// Records are sorted by (fingerprint, gen), funcs by name, and sites by
// key, so a database's serialization is a pure function of its contents.
// Decoding is strict — duplicate directives, duplicate entries, unknown
// directives, and malformed fields are line-numbered errors.

const (
	dbMagic   = "ILPROFDB 1"
	snapMagic = "ILPROFSNAP 1"
)

// WriteTo serializes the database deterministically.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintln(&sb, dbMagic)
	// An unnamed store (nothing ingested yet) omits the directive — a
	// bare "program " line would not re-parse.
	if db.Program != "" {
		fmt.Fprintf(&sb, "program %s\n", db.Program)
	}
	// The durability epoch is written only when the crash-safe Store has
	// stamped one, so plain offline databases keep their historical bytes.
	if db.Epoch > 0 {
		fmt.Fprintf(&sb, "epoch %d\n", db.Epoch)
	}
	for _, key := range db.sortedKeys() {
		rec := db.Records[key]
		fmt.Fprintf(&sb, "record %s %d\n", rec.Fingerprint, rec.Gen)
		writeRecordBody(&sb, rec)
		fmt.Fprintln(&sb, "end")
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// WriteSnapshot serializes one record as an ingest/serve payload.
func WriteSnapshot(w io.Writer, program string, rec *Record) (int64, error) {
	var sb strings.Builder
	fmt.Fprintln(&sb, snapMagic)
	if program != "" {
		fmt.Fprintf(&sb, "program %s\n", program)
	}
	fmt.Fprintf(&sb, "fingerprint %s\n", rec.Fingerprint)
	fmt.Fprintf(&sb, "gen %d\n", rec.Gen)
	writeRecordBody(&sb, rec)
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func writeRecordBody(sb *strings.Builder, rec *Record) {
	fmt.Fprintf(sb, "runs %d\n", rec.Runs)
	fmt.Fprintf(sb, "il %d\n", rec.IL)
	fmt.Fprintf(sb, "control %d\n", rec.Control)
	fmt.Fprintf(sb, "calls %d\n", rec.Calls)
	fmt.Fprintf(sb, "returns %d\n", rec.Returns)
	fmt.Fprintf(sb, "extern %d\n", rec.Extern)
	fmt.Fprintf(sb, "ptr %d\n", rec.Ptr)
	fmt.Fprintf(sb, "truncated %d\n", rec.Truncated)
	fmt.Fprintf(sb, "maxstack %d\n", rec.MaxStack)
	// Exact records (rate 0) omit the directive so historical databases
	// keep their bytes; -1 persists the mixed-rate marker.
	if rec.SampleRate != 0 {
		fmt.Fprintf(sb, "samplerate %d\n", rec.SampleRate)
	}
	for _, name := range rec.sortedFuncNames() {
		fmt.Fprintf(sb, "func %s %d\n", name, rec.Funcs[name])
	}
	for _, k := range rec.sortedSiteKeys() {
		fmt.Fprintf(sb, "site %s %d\n", k, rec.Sites[k])
	}
	for _, k := range rec.sortedTargetKeys() {
		ts := rec.Targets[k]
		names := make([]string, 0, len(ts))
		for t := range ts {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			fmt.Fprintf(sb, "target %s %s %d\n", k, t, ts[t])
		}
	}
}

// decoder is a line-numbered strict scanner shared by the DB and
// snapshot readers.
type decoder struct {
	sc     *bufio.Scanner
	lineNo int
	what   string
}

func newDecoder(r io.Reader, what string) *decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	return &decoder{sc: sc, what: what}
}

// next returns the fields of the next non-blank, non-comment line.
func (d *decoder) next() ([]string, bool) {
	for d.sc.Scan() {
		d.lineNo++
		line := strings.TrimSpace(d.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return strings.Fields(line), true
	}
	return nil, false
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: %s", d.what, d.lineNo, fmt.Sprintf(format, args...))
}

func (d *decoder) num(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, d.errf("bad number %q", s)
	}
	return v, nil
}

// scalarFields maps record-body directives onto record fields.
func scalarFields(rec *Record) map[string]*int64 {
	return map[string]*int64{
		"il": &rec.IL, "control": &rec.Control, "calls": &rec.Calls,
		"returns": &rec.Returns, "extern": &rec.Extern, "ptr": &rec.Ptr,
		"truncated": &rec.Truncated, "maxstack": &rec.MaxStack,
	}
}

// readBodyLine parses one record-body directive into rec. Returns
// handled=false when the directive belongs to the enclosing container.
func (d *decoder) readBodyLine(fields []string, rec *Record, seen map[string]int) (handled bool, err error) {
	switch fields[0] {
	case "runs":
		if len(fields) != 2 {
			return true, d.errf("malformed %q", strings.Join(fields, " "))
		}
		if prev, dup := seen["runs"]; dup {
			return true, d.errf("duplicate %q directive (first on line %d)", "runs", prev)
		}
		seen["runs"] = d.lineNo
		v, err := d.num(fields[1])
		if err != nil {
			return true, err
		}
		rec.Runs = int(v)
		return true, nil
	case "samplerate":
		if len(fields) != 2 {
			return true, d.errf("malformed %q", strings.Join(fields, " "))
		}
		if prev, dup := seen["samplerate"]; dup {
			return true, d.errf("duplicate %q directive (first on line %d)", "samplerate", prev)
		}
		seen["samplerate"] = d.lineNo
		v, err := d.num(fields[1])
		if err != nil {
			return true, err
		}
		if v < -1 {
			return true, d.errf("bad samplerate %d (want -1, 0, or a positive rate)", v)
		}
		rec.SampleRate = int(v)
		return true, nil
	case "il", "control", "calls", "returns", "extern", "ptr", "truncated", "maxstack":
		if len(fields) != 2 {
			return true, d.errf("malformed %q", strings.Join(fields, " "))
		}
		if prev, dup := seen[fields[0]]; dup {
			return true, d.errf("duplicate %q directive (first on line %d)", fields[0], prev)
		}
		seen[fields[0]] = d.lineNo
		v, err := d.num(fields[1])
		if err != nil {
			return true, err
		}
		*scalarFields(rec)[fields[0]] = v
		return true, nil
	case "func":
		if len(fields) != 3 {
			return true, d.errf("malformed func entry (want `func <name> <count>`)")
		}
		if _, dup := rec.Funcs[fields[1]]; dup {
			return true, d.errf("duplicate func entry %q", fields[1])
		}
		v, err := d.num(fields[2])
		if err != nil {
			return true, err
		}
		rec.Funcs[fields[1]] = v
		return true, nil
	case "site":
		if len(fields) != 6 {
			return true, d.errf("malformed site entry (want `site <caller> <callee> <ordinal> <poshash> <count>`)")
		}
		ord, err := d.num(fields[3])
		if err != nil {
			return true, err
		}
		ph, err := strconv.ParseUint(fields[4], 16, 32)
		if err != nil {
			return true, d.errf("bad poshash %q", fields[4])
		}
		v, err := d.num(fields[5])
		if err != nil {
			return true, err
		}
		k := SiteKey{Caller: fields[1], Callee: fields[2], Ordinal: int(ord), PosHash: uint32(ph)}
		if _, dup := rec.Sites[k]; dup {
			return true, d.errf("duplicate site entry %q", k.String())
		}
		rec.Sites[k] = v
		return true, nil
	case "target":
		if len(fields) != 7 {
			return true, d.errf("malformed target entry (want `target <caller> <callee> <ordinal> <poshash> <target-func> <count>`)")
		}
		ord, err := d.num(fields[3])
		if err != nil {
			return true, err
		}
		ph, err := strconv.ParseUint(fields[4], 16, 32)
		if err != nil {
			return true, d.errf("bad poshash %q", fields[4])
		}
		v, err := d.num(fields[6])
		if err != nil {
			return true, err
		}
		k := SiteKey{Caller: fields[1], Callee: fields[2], Ordinal: int(ord), PosHash: uint32(ph)}
		if _, dup := rec.Targets[k][fields[5]]; dup {
			return true, d.errf("duplicate target entry %q %s", k.String(), fields[5])
		}
		rec.addTarget(k, fields[5], v)
		return true, nil
	}
	return false, nil
}

// ReadDB parses a serialized database.
func ReadDB(r io.Reader) (*DB, error) {
	d := newDecoder(r, "profdb")
	fields, ok := d.next()
	if !ok {
		return nil, fmt.Errorf("profdb: empty input")
	}
	if strings.Join(fields, " ") != dbMagic {
		return nil, fmt.Errorf("profdb: bad magic %q", strings.Join(fields, " "))
	}
	db := NewDB("")
	var rec *Record
	var seen map[string]int
	sawProgram := false
	sawEpoch := false
	finish := func() error {
		if rec == nil {
			return nil
		}
		return d.errf("record %s %d not terminated by `end`", rec.Fingerprint, rec.Gen)
	}
	for {
		fields, ok := d.next()
		if !ok {
			if err := d.sc.Err(); err != nil {
				return nil, err
			}
			if err := finish(); err != nil {
				return nil, err
			}
			return db, nil
		}
		switch fields[0] {
		case "program":
			if rec != nil {
				return nil, d.errf("`program` inside a record")
			}
			if sawProgram {
				return nil, d.errf("duplicate `program` directive")
			}
			if len(fields) != 2 {
				return nil, d.errf("malformed program directive")
			}
			sawProgram = true
			db.Program = fields[1]
		case "epoch":
			if rec != nil {
				return nil, d.errf("`epoch` inside a record")
			}
			if sawEpoch {
				return nil, d.errf("duplicate `epoch` directive")
			}
			if len(fields) != 2 {
				return nil, d.errf("malformed epoch directive")
			}
			v, err := d.num(fields[1])
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, d.errf("negative epoch %d", v)
			}
			sawEpoch = true
			db.Epoch = int(v)
		case "record":
			if rec != nil {
				return nil, d.errf("`record` before previous record's `end`")
			}
			if len(fields) != 3 {
				return nil, d.errf("malformed record header (want `record <fingerprint> <gen>`)")
			}
			gen, err := d.num(fields[2])
			if err != nil {
				return nil, err
			}
			if gen < 0 {
				return nil, d.errf("negative generation %d", gen)
			}
			rec = NewRecord(fields[1], int(gen))
			seen = make(map[string]int)
		case "end":
			if rec == nil {
				return nil, d.errf("`end` outside a record")
			}
			if rec.Runs <= 0 {
				return nil, d.errf("record %s %d has missing or non-positive runs count", rec.Fingerprint, rec.Gen)
			}
			key := RecordKey{rec.Fingerprint, rec.Gen}
			if _, dup := db.Records[key]; dup {
				return nil, d.errf("duplicate record %s %d", rec.Fingerprint, rec.Gen)
			}
			db.Records[key] = rec
			rec = nil
		default:
			if rec == nil {
				return nil, d.errf("unknown directive %q", fields[0])
			}
			handled, err := d.readBodyLine(fields, rec, seen)
			if err != nil {
				return nil, err
			}
			if !handled {
				return nil, d.errf("unknown directive %q", fields[0])
			}
		}
	}
}

// ReadSnapshot parses an ingest/serve payload.
func ReadSnapshot(r io.Reader) (program string, rec *Record, err error) {
	d := newDecoder(r, "profdb snapshot")
	fields, ok := d.next()
	if !ok {
		return "", nil, fmt.Errorf("profdb snapshot: empty input")
	}
	if strings.Join(fields, " ") != snapMagic {
		return "", nil, fmt.Errorf("profdb snapshot: bad magic %q", strings.Join(fields, " "))
	}
	rec = NewRecord("", 0)
	seen := make(map[string]int)
	for {
		fields, ok := d.next()
		if !ok {
			if err := d.sc.Err(); err != nil {
				return "", nil, err
			}
			if rec.Fingerprint == "" {
				return "", nil, fmt.Errorf("profdb snapshot: missing fingerprint")
			}
			if rec.Runs <= 0 {
				return "", nil, fmt.Errorf("profdb snapshot: missing or non-positive runs count")
			}
			return program, rec, nil
		}
		switch fields[0] {
		case "program":
			if len(fields) != 2 {
				return "", nil, d.errf("malformed program directive")
			}
			if prev, dup := seen["program"]; dup {
				return "", nil, d.errf("duplicate %q directive (first on line %d)", "program", prev)
			}
			seen["program"] = d.lineNo
			program = fields[1]
		case "fingerprint":
			if len(fields) != 2 {
				return "", nil, d.errf("malformed fingerprint directive")
			}
			if prev, dup := seen["fingerprint"]; dup {
				return "", nil, d.errf("duplicate %q directive (first on line %d)", "fingerprint", prev)
			}
			seen["fingerprint"] = d.lineNo
			rec.Fingerprint = fields[1]
		case "gen":
			if len(fields) != 2 {
				return "", nil, d.errf("malformed gen directive")
			}
			if prev, dup := seen["gen"]; dup {
				return "", nil, d.errf("duplicate %q directive (first on line %d)", "gen", prev)
			}
			seen["gen"] = d.lineNo
			v, err := d.num(fields[1])
			if err != nil {
				return "", nil, err
			}
			if v < 0 {
				return "", nil, d.errf("negative generation %d", v)
			}
			rec.Gen = int(v)
		default:
			handled, err := d.readBodyLine(fields, rec, seen)
			if err != nil {
				return "", nil, err
			}
			if !handled {
				return "", nil, d.errf("unknown directive %q", fields[0])
			}
		}
	}
}

// SnapshotOf converts an id-keyed averaged profile collected on mod into
// a stable-key record stamped with the module's fingerprint. It fails if
// the profile references a call-site id the module doesn't define — the
// exact profile/module mismatch stable keys exist to catch.
func SnapshotOf(prof *profile.Profile, mod *ir.Module, gen int) (*Record, error) {
	keys := ModuleKeys(mod)
	rec := NewRecord(ModuleFingerprint(mod), gen)
	rec.Runs = prof.Runs
	rec.IL = prof.TotalIL
	rec.Control = prof.TotalControl
	rec.Calls = prof.TotalCalls
	rec.Returns = prof.TotalReturns
	rec.Extern = prof.TotalExtern
	rec.Ptr = prof.TotalPtr
	rec.Truncated = prof.TotalTruncated
	rec.MaxStack = prof.MaxStack
	rec.SampleRate = prof.SampleRate

	ids := make([]int, 0, len(prof.SiteCounts))
	for id := range prof.SiteCounts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		k, ok := keys.Key(id)
		if !ok {
			return nil, fmt.Errorf("profdb: profile references call-site id %d, which %s does not define (profile/module mismatch)",
				id, mod.Name)
		}
		rec.Sites[k] += prof.SiteCounts[id]
	}
	tids := make([]int, 0, len(prof.PtrTargets))
	for id := range prof.PtrTargets {
		tids = append(tids, id)
	}
	sort.Ints(tids)
	for _, id := range tids {
		k, ok := keys.Key(id)
		if !ok {
			return nil, fmt.Errorf("profdb: profile references call-site id %d, which %s does not define (profile/module mismatch)",
				id, mod.Name)
		}
		for t, n := range prof.PtrTargets[id] {
			rec.addTarget(k, t, n)
		}
	}
	for name, n := range prof.FuncCounts {
		rec.Funcs[name] = n
	}
	return rec, nil
}

// ReadDBFile loads a database from disk. A missing file yields an empty
// database named program, so first ingests need no separate init step.
func ReadDBFile(path, program string) (*DB, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return NewDB(program), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := ReadDB(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// WriteDBFile atomically replaces path with the database's serialization
// (write to a temp file in the same directory, then rename).
func WriteDBFile(path string, db *DB) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".profdb-*")
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// The rename must only ever install fully-durable bytes: without this
	// barrier a crash shortly after can leave the new name pointing at a
	// half-written file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
