//go:build !linux

package main

import "syscall"

// dieWithParent has no portable form outside Linux: there only an
// orderly mfload exit stops its nodes.
func dieWithParent() *syscall.SysProcAttr { return nil }
