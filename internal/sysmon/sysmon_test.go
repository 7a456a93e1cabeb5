package sysmon

import (
	"testing"
	"time"
)

func TestEntityTypeRoundTrip(t *testing.T) {
	for _, typ := range []EntityType{EntityProcess, EntityFile, EntityNetconn} {
		got, ok := ParseEntityType(typ.String())
		if !ok || got != typ {
			t.Errorf("ParseEntityType(%q) = %v, %v", typ.String(), got, ok)
		}
	}
	if _, ok := ParseEntityType("bogus"); ok {
		t.Error("ParseEntityType accepted bogus type")
	}
	// aliases
	for in, want := range map[string]EntityType{
		"process": EntityProcess, "conn": EntityNetconn, "netconn": EntityNetconn,
	} {
		if got, ok := ParseEntityType(in); !ok || got != want {
			t.Errorf("ParseEntityType(%q) = %v, %v", in, got, ok)
		}
	}
}

func TestOperationRoundTrip(t *testing.T) {
	for op := Operation(1); int(op) < NumOperations; op++ {
		got, ok := ParseOperation(op.String())
		if !ok || got != op {
			t.Errorf("ParseOperation(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := ParseOperation("frobnicate"); ok {
		t.Error("ParseOperation accepted unknown op")
	}
}

func TestOperationObjectTypes(t *testing.T) {
	cases := map[Operation]EntityType{
		OpStart:   EntityProcess,
		OpEnd:     EntityProcess,
		OpExecute: EntityFile,
		OpDelete:  EntityFile,
		OpConnect: EntityNetconn,
		OpAccept:  EntityNetconn,
		OpRead:    EntityInvalid, // polymorphic
		OpWrite:   EntityInvalid,
	}
	for op, want := range cases {
		if got := op.ObjectType(); got != want {
			t.Errorf("%v.ObjectType() = %v, want %v", op, got, want)
		}
	}
}

func TestDefaultAttrs(t *testing.T) {
	if DefaultAttr(EntityProcess) != "exe_name" {
		t.Error("process default attr should be exe_name")
	}
	if DefaultAttr(EntityFile) != "name" {
		t.Error("file default attr should be name")
	}
	if DefaultAttr(EntityNetconn) != "dst_ip" {
		t.Error("netconn default attr should be dst_ip")
	}
}

func TestCanonicalAttr(t *testing.T) {
	cases := []struct {
		typ   EntityType
		in    string
		want  string
		valid bool
	}{
		{EntityNetconn, "dstip", "dst_ip", true},
		{EntityNetconn, "srcport", "src_port", true},
		{EntityNetconn, "dst_ip", "dst_ip", true},
		{EntityFile, "path", "name", true},
		{EntityFile, "name", "name", true},
		{EntityProcess, "exe_name", "exe_name", true},
		{EntityProcess, "dstip", "", false},
		{EntityFile, "pid", "", false},
	}
	for _, c := range cases {
		got, ok := CanonicalAttr(c.typ, c.in)
		if ok != c.valid || got != c.want {
			t.Errorf("CanonicalAttr(%v, %q) = %q, %v; want %q, %v", c.typ, c.in, got, ok, c.want, c.valid)
		}
	}
}

func TestAttrAccessors(t *testing.T) {
	p := Process{PID: 42, ExeName: "x.exe", Path: `C:\x.exe`, User: "u", CmdLine: "x -a"}
	if ProcessField("pid")(&p) != "42" || ProcessField("exe_name")(&p) != "x.exe" ||
		ProcessField("user")(&p) != "u" || ProcessField("cmdline")(&p) != "x -a" {
		t.Error("ProcessField mismatch")
	}
	f := File{Path: "/etc/passwd", Owner: "root"}
	if FileField("name")(&f) != "/etc/passwd" || FileField("path")(&f) != "/etc/passwd" || FileField("owner")(&f) != "root" {
		t.Error("FileField mismatch")
	}
	n := Netconn{SrcIP: "1.2.3.4", SrcPort: 80, DstIP: "5.6.7.8", DstPort: 443, Protocol: "tcp"}
	if NetconnField("src_ip")(&n) != "1.2.3.4" || NetconnField("dst_port")(&n) != "443" || NetconnField("protocol")(&n) != "tcp" {
		t.Error("NetconnField mismatch")
	}
	if ProcessField("srcip") != nil || FileField("pid") != nil || NetconnField("") != nil {
		t.Error("an unknown attribute has a field")
	}
}

func TestEventAttr(t *testing.T) {
	ev := Event{ID: 9, AgentID: 3, Op: OpWrite, StartTS: 100, EndTS: 200, Amount: 512, Seq: 4}
	for attr, want := range map[string]string{
		"id": "9", "agentid": "3", "op": "write", "starttime": "100",
		"endtime": "200", "amount": "512", "seq": "4",
	} {
		got, ok := EventAttr(&ev, attr)
		if !ok || got != want {
			t.Errorf("EventAttr(%q) = %q, %v; want %q", attr, got, ok, want)
		}
	}
	if _, ok := EventAttr(&ev, "bogus"); ok {
		t.Error("EventAttr accepted bogus attribute")
	}
}

func TestEventTimesAndFamily(t *testing.T) {
	ts := time.Date(2018, 5, 10, 13, 0, 0, 0, time.UTC)
	ev := Event{StartTS: ts.UnixNano(), EndTS: ts.Add(time.Second).UnixNano(), ObjType: EntityFile}
	if !ev.Start().Equal(ts) {
		t.Error("Start() mismatch")
	}
	if !ev.End().Equal(ts.Add(time.Second)) {
		t.Error("End() mismatch")
	}
	if ev.Family() != "file" {
		t.Errorf("Family() = %q", ev.Family())
	}
	ev.ObjType = EntityProcess
	if ev.Family() != "process" {
		t.Errorf("Family() = %q", ev.Family())
	}
	ev.ObjType = EntityNetconn
	if ev.Family() != "network" {
		t.Errorf("Family() = %q", ev.Family())
	}
}
