package sysmon

import (
	"fmt"
	"strconv"
)

// Attribute names understood by the query languages, per entity type.
// Each entity type has a default attribute used by the AIQL positional
// filter shortcut (e.g. proc p["%cmd.exe"] filters on exe_name).
var (
	processAttrs = []string{"pid", "exe_name", "path", "user", "cmdline"}
	fileAttrs    = []string{"name", "path", "owner"}
	netconnAttrs = []string{"src_ip", "src_port", "dst_ip", "dst_port", "protocol", "srcip", "srcport", "dstip", "dstport"}
)

// DefaultAttr returns the default attribute name for an entity type:
// the attribute a bare positional filter or bare return variable refers to.
func DefaultAttr(t EntityType) string {
	switch t {
	case EntityProcess:
		return "exe_name"
	case EntityFile:
		return "name"
	case EntityNetconn:
		return "dst_ip"
	default:
		return ""
	}
}

// ValidAttr reports whether name is a queryable attribute of entity type t.
func ValidAttr(t EntityType, name string) bool {
	for _, a := range attrsFor(t) {
		if a == name {
			return true
		}
	}
	return false
}

// Attrs returns the canonical attribute names for an entity type.
func Attrs(t EntityType) []string {
	switch t {
	case EntityProcess:
		return []string{"pid", "exe_name", "path", "user", "cmdline"}
	case EntityFile:
		return []string{"name", "owner"}
	case EntityNetconn:
		return []string{"src_ip", "src_port", "dst_ip", "dst_port", "protocol"}
	default:
		return nil
	}
}

func attrsFor(t EntityType) []string {
	switch t {
	case EntityProcess:
		return processAttrs
	case EntityFile:
		return fileAttrs
	case EntityNetconn:
		return netconnAttrs
	default:
		return nil
	}
}

// CanonicalAttr normalizes attribute aliases (e.g. "dstip" → "dst_ip",
// file "path" → "name"). It returns the canonical name and whether the
// attribute is valid for the entity type.
func CanonicalAttr(t EntityType, name string) (string, bool) {
	if !ValidAttr(t, name) {
		return "", false
	}
	switch t {
	case EntityFile:
		if name == "path" {
			return "name", true
		}
	case EntityNetconn:
		switch name {
		case "srcip":
			return "src_ip", true
		case "srcport":
			return "src_port", true
		case "dstip":
			return "dst_ip", true
		case "dstport":
			return "dst_port", true
		}
	}
	return name, true
}

// ProcessField returns the function rendering a process attribute as a
// string (nil for an unknown name), so a caller reading one attribute of
// many processes resolves the name once.
func ProcessField(attr string) func(*Process) string {
	switch attr {
	case "pid":
		return func(p *Process) string { return strconv.FormatUint(uint64(p.PID), 10) }
	case "exe_name":
		return func(p *Process) string { return p.ExeName }
	case "path":
		return func(p *Process) string { return p.Path }
	case "user":
		return func(p *Process) string { return p.User }
	case "cmdline":
		return func(p *Process) string { return p.CmdLine }
	default:
		return nil
	}
}

// FileField is ProcessField for file attributes.
func FileField(attr string) func(*File) string {
	switch attr {
	case "name", "path":
		return func(f *File) string { return f.Path }
	case "owner":
		return func(f *File) string { return f.Owner }
	default:
		return nil
	}
}

// NetconnField is ProcessField for network-connection attributes.
func NetconnField(attr string) func(*Netconn) string {
	switch attr {
	case "src_ip":
		return func(n *Netconn) string { return n.SrcIP }
	case "src_port":
		return func(n *Netconn) string { return strconv.FormatUint(uint64(n.SrcPort), 10) }
	case "dst_ip":
		return func(n *Netconn) string { return n.DstIP }
	case "dst_port":
		return func(n *Netconn) string { return strconv.FormatUint(uint64(n.DstPort), 10) }
	case "protocol":
		return func(n *Netconn) string { return n.Protocol }
	default:
		return nil
	}
}

// EventAttr returns the string form of an event-level attribute
// (attributes of the event itself rather than of its endpoint entities).
func EventAttr(e *Event, attr string) (string, bool) {
	switch attr {
	case "id":
		return strconv.FormatUint(e.ID, 10), true
	case "agentid", "agent_id":
		return strconv.FormatUint(uint64(e.AgentID), 10), true
	case "optype", "op":
		return e.Op.String(), true
	case "starttime", "start_time":
		return strconv.FormatInt(e.StartTS, 10), true
	case "endtime", "end_time":
		return strconv.FormatInt(e.EndTS, 10), true
	case "amount":
		return strconv.FormatUint(e.Amount, 10), true
	case "seq":
		return strconv.FormatUint(e.Seq, 10), true
	}
	return "", false
}

// ValidEventAttr reports whether name is a queryable event-level attribute.
func ValidEventAttr(name string) bool {
	switch name {
	case "id", "agentid", "agent_id", "optype", "op",
		"starttime", "start_time", "endtime", "end_time", "amount", "seq":
		return true
	}
	return false
}

// FormatAgent renders an agent ID the way result tables display hosts.
func FormatAgent(id uint32) string { return fmt.Sprintf("agent-%d", id) }
