package main

import "syscall"

// dieWithParent has the kernel SIGKILL a node once the thread that
// forked it exits, which it does at the latest when mfload dies.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
