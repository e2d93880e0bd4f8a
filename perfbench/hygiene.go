package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// leftovers reports anything the run left behind: its temp root, a live
// child process, or a listening socket. Empty means a clean exit.
func leftovers(tmp string) string {
	var out []string
	if _, err := os.Stat(tmp); err == nil {
		out = append(out, "temp root "+tmp+" still exists")
	}
	if kids := childProcesses(); len(kids) > 0 {
		out = append(out, fmt.Sprintf("child processes still running: %v", kids))
	}
	if n := listeningSockets(); n > 0 {
		out = append(out, fmt.Sprintf("%d listening sockets still open", n))
	}
	return strings.Join(out, "; ")
}

// childProcesses lists the pids whose parent is this process.
func childProcesses() []int {
	self := os.Getpid()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var kids []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process exited while we looked
		}
		// Fields after the parenthesised command: state, ppid, ...
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(fields[1]); ppid == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids
}

// listeningSockets counts this process's TCP sockets in the LISTEN state.
func listeningSockets() int {
	own := map[string]bool{}
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			own[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	n := 0
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(table)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			// sl local remote st tx:rx tr:when retrnsmt uid timeout inode
			fields := strings.Fields(sc.Text())
			if len(fields) > 9 && fields[3] == "0A" && own[fields[9]] {
				n++
			}
		}
		f.Close()
	}
	return n
}
