package datagen

import (
	"fmt"
	"sort"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

func stableSort(recs []eventstore.Record, less func(i, j int) bool) {
	sort.SliceStable(recs, less)
}

// windowsServices and friends are the background process populations.
var (
	windowsServices = []string{"svchost.exe", "services.exe", "lsass.exe", "wininit.exe", "explorer.exe", "spoolsv.exe", "taskhost.exe"}
	windowsApps     = []string{"chrome.exe", "firefox.exe", "outlook.exe", "winword.exe", "excel.exe", "notepad.exe", "teams.exe"}
	windowsShells   = []string{"cmd.exe", "powershell.exe"}
	linuxServices   = []string{"systemd", "sshd", "cron", "rsyslogd", "dbus-daemon"}
	linuxApps       = []string{"bash", "vim", "python3", "curl", "git", "make", "gcc"}
	webProcs        = []string{"apache2", "nginx", "php-fpm", "unrealircd"}
	dbProcs         = []string{"sqlservr.exe", "sqlwriter.exe", "sqlagent.exe"}
	dcProcs         = []string{"lsass.exe", "ntds.exe", "dns.exe", "kdc.exe"}
	fileProcs       = []string{"lanmanserver.exe", "srv2.exe", "smbd"}
)

func (g *generator) buildHosts() {
	mk := func(agent uint32, os, role string, names []string, weight int) hostProfile {
		h := hostProfile{
			agent: agent, os: os, role: role, weight: weight,
			internal: fmt.Sprintf("10.0.0.%d", agent),
		}
		pid := uint32(400 + agent*17)
		user := "system"
		if os == "linux" {
			user = "root"
		}
		for _, n := range names {
			h.procs = append(h.procs, sysmon.Process{
				PID: pid, ExeName: n, Path: procPath(os, n), User: user,
			})
			pid += 13
		}
		// per-host file pool
		nfiles := 60 + int(agent)*7%40
		for i := 0; i < nfiles; i++ {
			h.files = append(h.files, filePath(os, role, int(agent), i))
		}
		return h
	}
	g.hosts = nil
	g.hosts = append(g.hosts,
		mk(AgentWebServer, "linux", "web", append(append([]string{}, linuxServices...), webProcs...), 16),
		mk(AgentDBServer, "windows", "db", append(append([]string{}, windowsServices...), dbProcs...), 14),
		mk(AgentDC, "windows", "dc", append(append([]string{}, windowsServices...), dcProcs...), 8),
		mk(AgentFileServer, "windows", "file", append(append([]string{}, windowsServices...), fileProcs...), 10),
	)
	for a := FirstWorkstation; a <= g.cfg.Hosts; a++ {
		os := "windows"
		names := append(append([]string{}, windowsServices...), windowsApps...)
		names = append(names, windowsShells...)
		if a%4 == 0 {
			os = "linux"
			names = append(append([]string{}, linuxServices...), linuxApps...)
		}
		g.hosts = append(g.hosts, mk(uint32(a), os, "workstation", names, 4))
	}
	g.externalIPs = nil
	for i := 0; i < 48; i++ {
		g.externalIPs = append(g.externalIPs, fmt.Sprintf("93.184.%d.%d", 10+i/8, 20+i*5%200))
	}
}

func procPath(os, name string) string {
	if os == "linux" {
		return "/usr/bin/" + name
	}
	return `C:\Windows\System32\` + name
}

func filePath(os, role string, agent, i int) string {
	if os == "linux" {
		switch {
		case role == "web" && i%3 == 0:
			return fmt.Sprintf("/var/www/html/page%d.php", i)
		case i%4 == 1:
			return fmt.Sprintf("/var/log/app/app%d.log", i)
		default:
			return fmt.Sprintf("/home/user%d/work/file%d.txt", agent, i)
		}
	}
	switch {
	case role == "db" && i%3 == 0:
		return fmt.Sprintf(`C:\SQLData\tablespace%d.mdf`, i)
	case i%5 == 2:
		return fmt.Sprintf(`C:\Windows\Temp\tmp%d-%d.dat`, agent, i)
	case i%5 == 3:
		return fmt.Sprintf(`C:\ProgramData\app\cache%d.bin`, i)
	default:
		return fmt.Sprintf(`C:\Users\user%d\Documents\doc%d.docx`, agent, i)
	}
}

// background emits the configured volume of benign events across hosts.
// The mix follows observed audit-log skew: file I/O dominates, network
// activity clusters on servers, process starts are comparatively rare.
func (g *generator) background() []eventstore.Record {
	totalWeight := 0
	for _, h := range g.hosts {
		totalWeight += h.weight
	}
	span := g.cfg.Duration
	recs := make([]eventstore.Record, 0, g.cfg.Events+1024)
	for i := 0; i < g.cfg.Events; i++ {
		// pick host by weight
		w := g.rnd(totalWeight)
		var host *hostProfile
		for j := range g.hosts {
			if w < g.hosts[j].weight {
				host = &g.hosts[j]
				break
			}
			w -= g.hosts[j].weight
		}
		ts := g.cfg.Start.Add(time.Duration(g.rng.Int63n(int64(span)))).UnixNano()
		recs = append(recs, g.backgroundEvent(host, ts))
	}
	// Administrative tooling churn: real fleets run cmd.exe, powershell,
	// services.exe child starts, and scheduled robocopy/office activity
	// constantly, so the names investigation queries filter on also match
	// benign events — the match sets baselines must join are not tiny.
	recs = append(recs, g.adminNoise()...)

	// steady benign CDN traffic to the attacker IP from the database
	// server's updater: small transfers all day, so anomaly models have a
	// baseline to compare the exfiltration burst against
	updater := sysmon.Process{PID: 912, ExeName: "updatesvc.exe", Path: `C:\Program Files\Updater\updatesvc.exe`, User: "system"}
	cdnConn := sysmon.Netconn{SrcIP: "10.0.0.2", SrcPort: 49152, DstIP: AttackerIP, DstPort: 443, Protocol: "tcp"}
	for m := 0; m < int(span/time.Minute); m += 2 {
		recs = append(recs, eventstore.Record{
			AgentID: AgentDBServer, Subject: updater, Op: sysmon.OpWrite,
			ObjType: sysmon.EntityNetconn, ObjConn: cdnConn,
			StartTS: g.cfg.Start.Add(time.Duration(m)*time.Minute + 30*time.Second).UnixNano(),
			Amount:  uint64(800 + g.rnd(400)),
		})
	}
	return recs
}

func (g *generator) backgroundEvent(h *hostProfile, ts int64) eventstore.Record {
	subj := h.procs[g.rnd(len(h.procs))]
	r := eventstore.Record{AgentID: h.agent, Subject: subj, StartTS: ts}
	switch pick := g.rnd(100); {
	case pick < 34: // file read
		r.Op = sysmon.OpRead
		r.ObjType = sysmon.EntityFile
		r.ObjFile = sysmon.File{Path: h.files[g.rnd(len(h.files))]}
		r.Amount = uint64(256 + g.rnd(16384))
	case pick < 58: // file write
		r.Op = sysmon.OpWrite
		r.ObjType = sysmon.EntityFile
		r.ObjFile = sysmon.File{Path: h.files[g.rnd(len(h.files))]}
		r.Amount = uint64(128 + g.rnd(8192))
	case pick < 66: // file execute/chmod/delete
		ops := []sysmon.Operation{sysmon.OpExecute, sysmon.OpChmod, sysmon.OpDelete}
		r.Op = ops[g.rnd(len(ops))]
		r.ObjType = sysmon.EntityFile
		r.ObjFile = sysmon.File{Path: h.files[g.rnd(len(h.files))]}
	case pick < 76: // process start: a shell or service spawns an app
		r.Op = sysmon.OpStart
		r.ObjType = sysmon.EntityProcess
		child := h.procs[g.rnd(len(h.procs))]
		child.PID = uint32(2000 + g.rnd(6000))
		r.ObjProc = child
	case pick < 90: // outbound traffic
		if g.rnd(2) == 0 {
			r.Op = sysmon.OpConnect
		} else {
			r.Op = sysmon.OpWrite
		}
		r.ObjType = sysmon.EntityNetconn
		r.ObjConn = sysmon.Netconn{
			SrcIP: h.internal, SrcPort: uint16(32768 + g.rnd(28000)),
			DstIP: g.externalIPs[g.rnd(len(g.externalIPs))], DstPort: 443, Protocol: "tcp",
		}
		r.Amount = uint64(200 + g.rnd(4000))
	default: // inbound/service traffic
		if g.rnd(2) == 0 {
			r.Op = sysmon.OpAccept
		} else {
			r.Op = sysmon.OpRecv
		}
		r.ObjType = sysmon.EntityNetconn
		peer := g.hosts[g.rnd(len(g.hosts))]
		r.ObjConn = sysmon.Netconn{
			SrcIP: peer.internal, SrcPort: uint16(32768 + g.rnd(28000)),
			DstIP: h.internal, DstPort: servicePort(h.role), Protocol: "tcp",
		}
		r.Amount = uint64(100 + g.rnd(2000))
	}
	return r
}

// adminNoise emits the benign administrative activity that shares names
// with attack tooling: scheduled shells, service starts, office documents,
// and nightly copy jobs. Volume scales with the configured event count so
// the noise/selectivity ratio is stable across dataset sizes.
func (g *generator) adminNoise() []eventstore.Record {
	var out []eventstore.Record
	scale := g.cfg.Events / 2000
	if scale < 4 {
		scale = 4
	}
	// A sub-minute timeline still has one minute to place noise in.
	span := max(1, int(g.cfg.Duration/time.Minute))
	randMin := func() (int, int, int) { // hour, min, sec
		m := g.rnd(span)
		return m / 60, m % 60, g.rnd(60)
	}
	for _, h := range g.hosts {
		if h.os != "windows" {
			continue
		}
		services := sysmon.Process{PID: 700 + h.agent, ExeName: "services.exe", Path: `C:\Windows\System32\services.exe`, User: "system"}
		taskeng := sysmon.Process{PID: 720 + h.agent, ExeName: "taskeng.exe", Path: `C:\Windows\System32\taskeng.exe`, User: "system"}
		for i := 0; i < scale; i++ {
			hh, mm, ss := randMin()
			cmd := sysmon.Process{PID: uint32(3000 + g.rnd(4000)), ExeName: "cmd.exe", Path: `C:\Windows\System32\cmd.exe`, User: "system"}
			ps := sysmon.Process{PID: uint32(3000 + g.rnd(4000)), ExeName: "powershell.exe", Path: `C:\Windows\System32\WindowsPowerShell\powershell.exe`, User: "system"}
			out = append(out,
				withProc(rec(h.agent, taskeng, sysmon.OpStart, g.at(hh, mm, ss), 0), cmd),
				withProc(rec(h.agent, cmd, sysmon.OpStart, g.at(hh, mm, ss+2), 0), ps),
				withFile(rec(h.agent, ps, sysmon.OpRead, g.at(hh, mm, ss+4), uint64(1024+g.rnd(8192))),
					sysmon.File{Path: fmt.Sprintf(`C:\Scripts\maint%d.ps1`, g.rnd(20))}),
			)
			svc := h.procs[g.rnd(len(h.procs))]
			out = append(out, withProc(rec(h.agent, services, sysmon.OpStart, g.at(hh, mm, ss+6), 0), svc))
		}
	}
	// nightly copy jobs on the file server touch the engineering tree and
	// write dated backup archives (not the staging archive the attack uses)
	robocopy := sysmon.Process{PID: 4410, ExeName: "robocopy.exe", Path: `C:\Windows\System32\robocopy.exe`, User: "backup"}
	for i := 0; i < scale*2; i++ {
		hh, mm, ss := randMin()
		out = append(out,
			withFile(rec(AgentFileServer, robocopy, sysmon.OpRead, g.at(hh, mm, ss), uint64(1000000+g.rnd(9000000))),
				sysmon.File{Path: designDoc(g.rnd(8))}),
			withFile(rec(AgentFileServer, robocopy, sysmon.OpWrite, g.at(hh, mm, ss+20), uint64(2000000+g.rnd(9000000))),
				sysmon.File{Path: fmt.Sprintf(`C:\Backups\backup-%d.rar`, g.rnd(30))}),
		)
	}
	// office activity on workstations: outlook delivers documents, word
	// reads them
	for _, h := range g.hosts {
		if h.role != "workstation" || h.os != "windows" {
			continue
		}
		outlook := sysmon.Process{PID: 800 + h.agent, ExeName: "outlook.exe", Path: `C:\Program Files\Office\outlook.exe`, User: fmt.Sprintf("user%d", h.agent)}
		word := sysmon.Process{PID: 820 + h.agent, ExeName: "winword.exe", Path: `C:\Program Files\Office\winword.exe`, User: fmt.Sprintf("user%d", h.agent)}
		for i := 0; i < scale/2+1; i++ {
			hh, mm, ss := randMin()
			doc := sysmon.File{Path: fmt.Sprintf(`C:\Users\user%d\Downloads\report%d.doc`, h.agent, g.rnd(40))}
			out = append(out,
				withFile(rec(h.agent, outlook, sysmon.OpWrite, g.at(hh, mm, ss), uint64(50000+g.rnd(400000))), doc),
				withFile(rec(h.agent, word, sysmon.OpRead, g.at(hh, mm, ss+30), uint64(50000+g.rnd(400000))), doc),
			)
		}
	}
	return out
}

func servicePort(role string) uint16 {
	switch role {
	case "web":
		return 80
	case "db":
		return 1433
	case "dc":
		return 389
	case "file":
		return 445
	default:
		return 135
	}
}
