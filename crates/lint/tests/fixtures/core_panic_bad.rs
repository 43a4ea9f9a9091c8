impl Core {
    pub fn wrote(&mut self, id: u64, n: usize) {
        let conn = self.conns.get_mut(&id).expect("the shell only reports open connections");
        conn.out_pos += n;
    }
}
