package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// sourceRef names the code a result was measured on: the git commit
// when the tree is a git checkout, plus a hash of the Go sources and
// assembly so an exported tree without .git is still identified.
func sourceRef(root string) string {
	ref := "src:" + sourceHash(root)
	if commit := gitHead(root); commit != "" {
		ref = "git:" + commit + " " + ref
	}
	return ref
}

func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	line := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(line, "ref: ")
	if !ok {
		return line // detached HEAD holds the commit itself
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, ref, ok := strings.Cut(l, " "); ok && ref == name {
			return sha
		}
	}
	return ""
}

// sourceHash hashes every .go, .s and go.mod file under root (build
// outputs and VCS metadata excluded) in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the hash
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || strings.HasSuffix(n, ".s") || n == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
